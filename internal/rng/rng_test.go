package rng

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedZeroUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("seed 0 produced repeats in first 100 outputs: %d unique", len(seen))
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided %d/100 times", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(7)
	c1 := r.Split()
	c2 := r.Split()
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			t.Fatal("split children produced identical output")
		}
	}
}

func TestSeedResets(t *testing.T) {
	r := New(99)
	first := make([]uint64, 10)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.NormFloat64() // populate the gaussian cache
	r.Seed(99)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("after reseed, output %d = %d, want %d", i, got, first[i])
		}
	}
}

func TestStateRoundTrip(t *testing.T) {
	f := func(seed uint64, warmup uint8) bool {
		r := New(seed)
		for i := 0; i < int(warmup%64); i++ {
			r.Uint64()
		}
		if warmup%3 == 0 {
			r.NormFloat64() // leave the gauss cache populated half the time
		}
		st := r.State()
		var clone Rand
		clone.SetState(st)
		for i := 0; i < 256; i++ {
			switch i % 4 {
			case 0:
				if r.Uint64() != clone.Uint64() {
					return false
				}
			case 1:
				if r.Float64() != clone.Float64() {
					return false
				}
			case 2:
				if r.NormFloat64() != clone.NormFloat64() {
					return false
				}
			default:
				if r.Intn(97) != clone.Intn(97) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStateJSONRoundTrip(t *testing.T) {
	r := New(31)
	for i := 0; i < 17; i++ {
		r.Uint64()
	}
	r.NormFloat64() // cached deviate must survive the round trip
	data, err := json.Marshal(r.State())
	if err != nil {
		t.Fatal(err)
	}
	var st State
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	var clone Rand
	clone.SetState(st)
	if a, b := r.NormFloat64(), clone.NormFloat64(); a != b {
		t.Fatalf("cached gauss deviate diverged after JSON: %v vs %v", a, b)
	}
	for i := 0; i < 1000; i++ {
		if r.Uint64() != clone.Uint64() {
			t.Fatalf("streams diverged at step %d after JSON round trip", i)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d far from expectation %.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	sum := 0.0
	const trials = 100000
	for i := 0; i < trials; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / trials; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean %.4f, want ~0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(13)
	const trials = 200000
	var sum, sumSq float64
	for i := 0; i < trials; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / trials
	variance := sumSq/trials - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean %.4f, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance %.4f, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(17)
	for _, n := range []int{0, 1, 5, 64} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

// TestIntnGolden pins Intn's draws from a fixed seed for a trivial, a
// small, a route-sized and a power-of-two bound, and the stream position
// after them: a change to the bounded multiply moves a draw or the number
// of words consumed.
func TestIntnGolden(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want []int
		next uint64
	}{
		{1, []int{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 0x3fa3dac185ab7f47},
		{7, []int{5, 0, 1, 0, 3, 1, 3, 0, 2, 5, 5, 6}, 0x3fa3dac185ab7f47},
		{400, []int{324, 25, 63, 19, 222, 101, 186, 28, 124, 303, 298, 356}, 0x3fa3dac185ab7f47},
		{1 << 20, []int{850310, 66876, 167522, 51457, 583216, 266587, 487602, 75729, 326795, 794784, 782735, 935218}, 0x3fa3dac185ab7f47},
	} {
		r := New(2007)
		for i, want := range tc.want {
			if got := r.Intn(tc.n); got != want {
				t.Fatalf("Intn(%d) draw %d = %d, want %d", tc.n, i, got, want)
			}
		}
		if got := r.Uint64(); got != tc.next {
			t.Fatalf("Intn(%d): next word %#x, want %#x", tc.n, got, tc.next)
		}
	}
}

func TestShuffleProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		r := New(seed)
		m := int(n % 50)
		vals := make([]int, m)
		for i := range vals {
			vals[i] = i
		}
		r.Shuffle(m, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		seen := make([]bool, m)
		for _, v := range vals {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink = r.Intn(200)
	}
	_ = sink
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = r.NormFloat64()
	}
	_ = sink
}
