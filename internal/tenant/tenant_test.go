package tenant

import (
	"strings"
	"testing"
	"time"
)

// clock is a deterministic virtual time source.
type clock struct{ t time.Time }

func newClock() *clock                   { return &clock{t: time.Unix(1_700_000_000, 0)} }
func (c *clock) now() time.Time          { return c.t }
func (c *clock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestResolve(t *testing.T) {
	r := NewRegistry(nil)
	r.Add(Policy{Name: "acme"}, "k-acme")

	cases := []struct {
		header string
		want   string
		err    bool
	}{
		{"", Anonymous, false},
		{"Bearer k-acme", "acme", false},
		{"bearer k-acme", "acme", false},
		{"Bearer  k-acme ", "acme", false}, // surrounding space trimmed
		{"k-acme", "acme", false},          // bare token accepted
		{"Bearer nope", "", true},
		{"Basic dXNlcjpwdw==", "", true},
	}
	for _, c := range cases {
		got, err := r.Resolve(c.header)
		if c.err {
			if err == nil {
				t.Errorf("Resolve(%q): want error, got %q", c.header, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("Resolve(%q) = %q, %v; want %q", c.header, got, err, c.want)
		}
	}
}

func TestSubmitBucketDeterministic(t *testing.T) {
	ck := newClock()
	r := NewRegistry(ck.now)
	r.Add(Policy{Name: "acme", SubmitRate: 2, SubmitBurst: 3}, "k")

	// The burst drains exactly, then refills at 2 tokens/s.
	for i := 0; i < 3; i++ {
		if ok, _ := r.TakeSubmit("acme"); !ok {
			t.Fatalf("burst token %d refused", i)
		}
	}
	ok, retry := r.TakeSubmit("acme")
	if ok {
		t.Fatal("fourth token granted from an empty bucket")
	}
	if retry != 500*time.Millisecond {
		t.Fatalf("retry hint = %v; want 500ms at 2 tokens/s", retry)
	}
	ck.advance(500 * time.Millisecond)
	if ok, _ := r.TakeSubmit("acme"); !ok {
		t.Fatal("token refused after exactly one refill interval")
	}
	if ok, _ := r.TakeSubmit("acme"); ok {
		t.Fatal("bucket granted more than the refilled single token")
	}
	// Refill caps at the burst.
	ck.advance(time.Hour)
	granted := 0
	for i := 0; i < 10; i++ {
		if ok, _ := r.TakeSubmit("acme"); ok {
			granted++
		}
	}
	if granted != 3 {
		t.Fatalf("after a long idle %d tokens granted; want the burst of 3", granted)
	}
}

func TestUnlimitedTenants(t *testing.T) {
	r := NewRegistry(nil)
	for i := 0; i < 1000; i++ {
		if ok, _ := r.TakeSubmit(Anonymous); !ok {
			t.Fatal("anonymous tenant rate-limited without a policy")
		}
		if ok, _ := r.TakeMutate("never-configured"); !ok {
			t.Fatal("unknown tenant should inherit the anonymous (unlimited) policy")
		}
	}
}

func TestClampPriority(t *testing.T) {
	p := Policy{MaxPriority: 5}
	for in, want := range map[int]int{-3: 0, 0: 0, 4: 4, 5: 5, 99: 5} {
		if got := p.ClampPriority(in); got != want {
			t.Errorf("ClampPriority(%d) = %d; want %d", in, got, want)
		}
	}
}

// keyfileGood and keyfileBad are TestParseKeyfile's inputs; they also
// seed FuzzParseKeyfile.
const keyfileGood = `{
  "tenants": [
    {"name": "acme", "keys": ["k1", "k2"], "weight": 4, "max_queued": 16},
    {"name": "beta", "keys": ["k3"], "submit_rate": 5}
  ],
  "anonymous": {"weight": 1, "max_queued": 8}
}`

var keyfileBad = []string{
	`{"tenants": [{"name": "anonymous", "keys": ["k"]}]}`,                                     // reserved name
	`{"tenants": [{"name": "acme"}]}`,                                                         // no keys
	`{"tenants": [{"name": "a", "keys": ["k"]}, {"name": "a", "keys": ["j"]}]}`,               // dup
	`{"tenants": [{"name": "a", "keys": ["k"], "submit_rate": -1}]}`,                          // negative
	`{"tenants": [{"name": "a", "keys": ["k"], "typo": 1}]}`,                                  // unknown field
	`{"tenants": [{"name": "a", "keys": ["s3cr3t"]}, {"name": "b", "keys": ["s3cr3t"]}]}`,     // key under two tenants
	`{"tenants": [{"name": "a", "keys": [""]}]}`,                                              // empty key
	`{"tenants": [{"name": "a", "keys": [" s3cr3t"]}]}`,                                       // untrimmed key
	`{"tenants": [{"name": "a", "keys": ["s3cr3t\t"]}]}`,                                      // untrimmed key
	`{"tenants": [], "anonymous": {"max_queued": -1, "submit_rate": -3}}`,                     // negative anonymous
	`{"tenants": [{"name": "a", "keys": ["k"]}], "anonymous": {"weight": -2}}`,                // negative anonymous
	`{"tenants": [{"name": "a", "keys": ["k"]}]} {"tenants": [{"name": "b", "keys": ["j"]}]}`, // two keyfiles
	`{"tenants": [{"name": "a", "keys": ["k"]}]} garbage`,                                     // trailing bytes
}

func TestParseKeyfile(t *testing.T) {
	kf, err := ParseKeyfile(strings.NewReader(keyfileGood))
	if err != nil {
		t.Fatalf("ParseKeyfile: %v", err)
	}
	r := kf.Registry(nil)
	if name, err := r.Resolve("Bearer k2"); err != nil || name != "acme" {
		t.Fatalf("Resolve k2 = %q, %v", name, err)
	}
	if p := r.Policy("acme"); p.Weight != 4 || p.MaxQueued != 16 {
		t.Fatalf("acme policy = %+v", p)
	}
	if p := r.Policy(Anonymous); p.MaxQueued != 8 {
		t.Fatalf("anonymous override not applied: %+v", p)
	}

	for _, b := range keyfileBad {
		kf, err := ParseKeyfile(strings.NewReader(b))
		if err == nil {
			t.Errorf("ParseKeyfile accepted bad config %s", b)
			continue
		}
		if kf != nil {
			t.Errorf("ParseKeyfile returned a keyfile with error %v", err)
		}
		if strings.Contains(err.Error(), "s3cr3t") {
			t.Errorf("ParseKeyfile error %q echoes a key", err)
		}
	}
}

func TestWeightNormalization(t *testing.T) {
	r := NewRegistry(nil)
	r.Add(Policy{Name: "w0"})
	if p := r.Policy("w0"); p.Weight != 1 {
		t.Fatalf("zero weight not normalized to 1: %+v", p)
	}
}
