package tenant

import (
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/strictjson"
)

// Keyfile is the on-disk tenant configuration (tsmod -tenant-keys):
//
//	{
//	  "tenants": [
//	    {"name": "acme", "keys": ["k-acme-1"], "weight": 4,
//	     "max_queued": 16, "max_concurrent": 2,
//	     "submit_rate": 5, "submit_burst": 10,
//	     "mutate_rate": 2, "mutate_burst": 4,
//	     "max_priority": 9, "mutation_budget": 200}
//	  ],
//	  "anonymous": {"weight": 1, "max_queued": 8}
//	}
//
// Every policy field is optional and zero means unlimited. The optional
// "anonymous" entry overrides the default unlimited policy of
// uncredentialed requests; its name is ignored.
type Keyfile struct {
	Tenants []KeyfileTenant `json:"tenants"`
	// Anonymous, when present, replaces the anonymous tenant's
	// unlimited default policy.
	Anonymous *Policy `json:"anonymous,omitempty"`
}

// KeyfileTenant is one tenant entry: its policy plus the API keys that
// resolve to it.
type KeyfileTenant struct {
	Policy
	Keys []string `json:"keys,omitempty"`
}

// ParseKeyfile decodes and validates a keyfile. Every key must be one a
// client can send and Resolve can match, and must belong to one tenant
// only. Errors name the tenants involved, never a key: a key is a
// credential.
func ParseKeyfile(r io.Reader) (*Keyfile, error) {
	var kf Keyfile
	if err := strictjson.Decode(r, &kf); err != nil {
		return nil, fmt.Errorf("tenant: parsing keyfile: %w", err)
	}
	ps := make([]Policy, 0, len(kf.Tenants)+1)
	owner := make(map[string]string) // API key -> tenant name
	for _, t := range kf.Tenants {
		if t.Name == Anonymous {
			return nil, fmt.Errorf("tenant: %q is reserved; use the top-level anonymous entry", Anonymous)
		}
		if len(t.Keys) == 0 {
			return nil, fmt.Errorf("tenant: policy %q has no API keys", t.Name)
		}
		for i, k := range t.Keys {
			// Resolve trims the bearer token, so such a key never matches.
			if k == "" || strings.TrimSpace(k) != k {
				return nil, fmt.Errorf("tenant: API key %d of policy %q is empty or has leading or trailing white space", i+1, t.Name)
			}
			if prev, ok := owner[k]; ok && prev != t.Name {
				return nil, fmt.Errorf("tenant: policies %q and %q share an API key", prev, t.Name)
			}
			owner[k] = t.Name
		}
		ps = append(ps, t.Policy)
	}
	if kf.Anonymous != nil {
		p := *kf.Anonymous
		p.Name = Anonymous
		ps = append(ps, p)
	}
	if err := Validate(ps); err != nil {
		return nil, err
	}
	return &kf, nil
}

// LoadKeyfile reads a keyfile from disk and builds a registry on the
// given clock (nil = time.Now).
func LoadKeyfile(path string, now func() time.Time) (*Registry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tenant: opening keyfile: %w", err)
	}
	defer f.Close()
	kf, err := ParseKeyfile(f)
	if err != nil {
		return nil, err
	}
	return kf.Registry(now), nil
}

// Registry materializes the keyfile into a live registry.
func (kf *Keyfile) Registry(now func() time.Time) *Registry {
	r := NewRegistry(now)
	if kf.Anonymous != nil {
		p := *kf.Anonymous
		p.Name = Anonymous
		r.Add(p)
	}
	for _, t := range kf.Tenants {
		r.Add(t.Policy, t.Keys...)
	}
	return r
}
