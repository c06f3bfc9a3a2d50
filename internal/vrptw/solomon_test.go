package vrptw

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

const sampleSolomon = `R101

VEHICLE
NUMBER     CAPACITY
  25         200

CUSTOMER
CUST NO.  XCOORD.   YCOORD.    DEMAND   READY TIME  DUE DATE   SERVICE TIME
    0      35         35          0          0       230          0
    1      41         49         10        161       171         10
    2      35         17          7         50        60         10
    3      55         45         13        116       126         10
`

func TestParseSolomon(t *testing.T) {
	in, err := ParseSolomon(strings.NewReader(sampleSolomon))
	if err != nil {
		t.Fatal(err)
	}
	if in.Name != "R101" {
		t.Errorf("name = %q, want R101", in.Name)
	}
	if in.Vehicles != 25 || in.Capacity != 200 {
		t.Errorf("fleet = %d×%g, want 25×200", in.Vehicles, in.Capacity)
	}
	if in.N() != 3 {
		t.Fatalf("N = %d, want 3", in.N())
	}
	c1 := in.Sites[1]
	if c1.X != 41 || c1.Y != 49 || c1.Demand != 10 || c1.Ready != 161 || c1.Due != 171 || c1.Service != 10 {
		t.Errorf("customer 1 parsed incorrectly: %+v", c1)
	}
}

func TestParseSolomonErrors(t *testing.T) {
	cases := map[string]string{
		"empty":            "",
		"no vehicle":       "X\nCUSTOMER\nCUST NO. X\n0 0 0 0 0 10 0\n1 1 1 1 0 10 1\n",
		"no customers":     "X\nVEHICLE\nNUMBER CAPACITY\n5 100\n",
		"short row":        "X\nVEHICLE\nNUMBER CAPACITY\n5 100\nCUSTOMER\nCUST NO. X\n0 0 0\n",
		"out of order ids": "X\nVEHICLE\nNUMBER CAPACITY\n5 100\nCUSTOMER\nCUST NO. X\n1 0 0 0 0 10 0\n",
	}
	for name, text := range cases {
		if _, err := ParseSolomon(strings.NewReader(text)); err == nil {
			t.Errorf("%s: ParseSolomon accepted malformed input", name)
		}
	}
}

func TestSolomonRoundTrip(t *testing.T) {
	orig, err := Generate(GenConfig{Class: RC1, N: 40, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSolomon(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ParseSolomon(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != orig.Name || back.Vehicles != orig.Vehicles || back.Capacity != orig.Capacity {
		t.Errorf("header mismatch: %q %d %g vs %q %d %g",
			back.Name, back.Vehicles, back.Capacity, orig.Name, orig.Vehicles, orig.Capacity)
	}
	if back.N() != orig.N() {
		t.Fatalf("N mismatch: %d vs %d", back.N(), orig.N())
	}
	for i := range orig.Sites {
		a, b := orig.Sites[i], back.Sites[i]
		if math.Abs(a.X-b.X) > 1e-3 || math.Abs(a.Y-b.Y) > 1e-3 ||
			a.Demand != b.Demand ||
			math.Abs(a.Ready-b.Ready) > 1e-3 || math.Abs(a.Due-b.Due) > 1e-3 ||
			math.Abs(a.Service-b.Service) > 0.5 {
			t.Errorf("site %d round-trip mismatch: %+v vs %+v", i, a, b)
		}
	}
}

// TestParseSolomonMax checks that a limited parse stops at the first
// customer row past the limit, before it builds the instance, and still
// accepts text at the limit.
func TestParseSolomonMax(t *testing.T) {
	text := func(n int) string {
		var b strings.Builder
		b.WriteString("LINE\n\nVEHICLE\nNUMBER CAPACITY\n10 1000\n\nCUSTOMER\nCUST NO. XCOORD. YCOORD. DEMAND READY DUE SERVICE\n")
		for c := 0; c <= n; c++ {
			fmt.Fprintf(&b, "%d %d 0 %d 0 1000 %d\n", c, c, min(c, 1), min(c, 1))
		}
		return b.String()
	}
	if _, err := ParseSolomonMax(strings.NewReader(text(51)), 50); !errors.Is(err, ErrTooManyCustomers) {
		t.Fatalf("51 customers under a limit of 50: %v, want ErrTooManyCustomers", err)
	}
	for _, max := range []int{0, 50} {
		in, err := ParseSolomonMax(strings.NewReader(text(50)), max)
		if err != nil || in.N() != 50 {
			t.Fatalf("50 customers under a limit of %d: %v", max, err)
		}
	}
}

// TestParseSolomonMaxAllocs holds the parser to a fixed number of heap
// allocations rather than a few per row: a 1,000-customer text parses in
// under 64, and refusing 3,000 customers at a limit of 1,000 allocates no
// more than accepting 1,000.
func TestParseSolomonMaxAllocs(t *testing.T) {
	text := func(n int) string {
		in, err := Generate(GenConfig{Class: R1, N: n, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := WriteSolomon(&b, in); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	allocs := func(text string, limit int, wantErr error) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := ParseSolomonMax(strings.NewReader(text), limit); !errors.Is(err, wantErr) {
				t.Fatalf("ParseSolomonMax at a limit of %d: %v, want %v", limit, err, wantErr)
			}
		})
	}
	accept := allocs(text(1000), 1000, nil)
	refuse := allocs(text(3000), 1000, ErrTooManyCustomers)
	t.Logf("accept 1,000: %.0f allocations; refuse 3,000: %.0f", accept, refuse)
	if accept >= 64 {
		t.Errorf("parsing 1,000 customers allocated %.0f times, want under 64", accept)
	}
	if refuse > accept {
		t.Errorf("refusing 3,000 customers allocated %.0f times, accepting 1,000 %.0f", refuse, accept)
	}
}
