package tenant

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// keyfileDocExample is the example in the Keyfile doc comment.
const keyfileDocExample = `{
  "tenants": [
    {"name": "acme", "keys": ["k-acme-1"], "weight": 4,
     "max_queued": 16, "max_concurrent": 2,
     "submit_rate": 5, "submit_burst": 10,
     "mutate_rate": 2, "mutate_burst": 4,
     "max_priority": 9, "mutation_budget": 200}
  ],
  "anonymous": {"weight": 1, "max_queued": 8}
}`

// FuzzParseKeyfile feeds hostile bytes to ParseKeyfile, the parser of the
// operator-supplied tenant keyfile. The contract: it never panics; a
// rejected input returns no keyfile; and an accepted keyfile is exactly
// one JSON value plus white space, has every policy, anonymous included,
// passing Validate, every key resolving through a bearer header to the
// tenant that lists it, and a JSON encoding that parses back deep-equal.
func FuzzParseKeyfile(f *testing.F) {
	f.Add([]byte(keyfileDocExample))
	f.Add([]byte(keyfileGood))
	for _, b := range keyfileBad {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		kf, err := ParseKeyfile(bytes.NewReader(data))
		if err != nil {
			if kf != nil {
				t.Fatalf("rejected input returned a keyfile: %v", err)
			}
			return
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		var one json.RawMessage
		if err := dec.Decode(&one); err != nil {
			t.Fatalf("accepted input is not a JSON value: %v", err)
		}
		if rest := data[dec.InputOffset():]; len(bytes.Trim(rest, " \t\r\n")) != 0 {
			t.Fatalf("accepted input has %q after its JSON value", rest)
		}
		ps := make([]Policy, 0, len(kf.Tenants)+1)
		for _, tn := range kf.Tenants {
			ps = append(ps, tn.Policy)
		}
		if kf.Anonymous != nil {
			p := *kf.Anonymous
			p.Name = Anonymous
			ps = append(ps, p)
		}
		if err := Validate(ps); err != nil {
			t.Fatalf("accepted keyfile fails Validate: %v", err)
		}
		r := kf.Registry(nil)
		for _, tn := range kf.Tenants {
			for i, k := range tn.Keys {
				if name, err := r.Resolve("Bearer " + k); err != nil || name != tn.Name {
					t.Fatalf("key %d of %q resolves to %q, %v", i+1, tn.Name, name, err)
				}
			}
		}
		enc, err := json.Marshal(kf)
		if err != nil {
			t.Fatalf("marshaling an accepted keyfile: %v", err)
		}
		back, err := ParseKeyfile(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-parsing %s: %v", enc, err)
		}
		if !reflect.DeepEqual(back, kf) {
			t.Fatalf("round trip changed the keyfile:\n got %+v\nwant %+v", back, kf)
		}
	})
}
