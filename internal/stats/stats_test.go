package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.6g, want %.6g (tol %g)", name, got, want, tol)
	}
}

func TestDescriptive(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	approx(t, "mean", Mean(xs), 5, 1e-12)
	approx(t, "variance", Variance(xs), 32.0/7, 1e-12)
	approx(t, "stddev", StdDev(xs), math.Sqrt(32.0/7), 1e-12)
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{3}) != 0 {
		t.Error("degenerate inputs should give zeros")
	}
	m, s := MeanStd(xs)
	if m != Mean(xs) || s != StdDev(xs) {
		t.Error("MeanStd disagrees with Mean/StdDev")
	}
}

func TestRegIncBetaKnownValues(t *testing.T) {
	// I_x(1,1) = x (uniform CDF).
	for _, x := range []float64{0.1, 0.25, 0.5, 0.9} {
		approx(t, "I_x(1,1)", RegIncBeta(1, 1, x), x, 1e-12)
	}
	// I_x(2,2) = x²(3-2x).
	for _, x := range []float64{0.2, 0.5, 0.8} {
		approx(t, "I_x(2,2)", RegIncBeta(2, 2, x), x*x*(3-2*x), 1e-10)
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	approx(t, "symmetry", RegIncBeta(3, 5, 0.3), 1-RegIncBeta(5, 3, 0.7), 1e-12)
	if RegIncBeta(2, 3, 0) != 0 || RegIncBeta(2, 3, 1) != 1 {
		t.Error("boundary values wrong")
	}
}

func TestStudentCDFKnownValues(t *testing.T) {
	// Reference values from standard t tables.
	approx(t, "CDF(0, 5)", StudentCDF(0, 5), 0.5, 1e-12)
	approx(t, "CDF(2.015, 5)", StudentCDF(2.015, 5), 0.95, 1e-3)
	approx(t, "CDF(2.571, 5)", StudentCDF(2.571, 5), 0.975, 1e-3)
	approx(t, "CDF(1.812, 10)", StudentCDF(1.812, 10), 0.95, 1e-3)
	approx(t, "CDF(-1.812, 10)", StudentCDF(-1.812, 10), 0.05, 1e-3)
	// Large df approaches the normal distribution.
	approx(t, "CDF(1.96, 1e6)", StudentCDF(1.96, 1e6), 0.975, 1e-3)
}

func TestPairedTTest(t *testing.T) {
	// Hand-checked example: d = {1,2,3,2,1,3,2,2}, mean 2, sd ~0.7559,
	// t = 2 / (0.7559/sqrt(8)) = 7.4833, df 7 -> p ~ 0.00014.
	a := []float64{5, 7, 9, 6, 4, 10, 8, 7}
	b := []float64{4, 5, 6, 4, 3, 7, 6, 5}
	res, err := PairedTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "t", res.T, 7.4833, 1e-3)
	approx(t, "df", res.DF, 7, 0)
	if res.P > 0.001 || res.P <= 0 {
		t.Errorf("p = %g, want ~1.4e-4", res.P)
	}
	// Identical samples: t=0, p=1.
	res, err = PairedTTest(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if res.T != 0 || res.P != 1 {
		t.Errorf("identical samples: t=%g p=%g", res.T, res.P)
	}
	// Constant non-zero difference: p=0.
	shift := make([]float64, len(a))
	for i := range a {
		shift[i] = a[i] + 1
	}
	res, err = PairedTTest(shift, a)
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 0 {
		t.Errorf("constant shift should give p=0, got %g", res.P)
	}
	if _, err := PairedTTest(a, b[:3]); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := PairedTTest(a[:1], b[:1]); err == nil {
		t.Error("single pair accepted")
	}
}

func TestPairedTTestDetectsSignal(t *testing.T) {
	r := rng.New(5)
	n := 30
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		base := r.NormFloat64()
		a[i] = base + 1.0 // consistent +1 shift
		b[i] = base + 0.2*r.NormFloat64()
	}
	res, err := PairedTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.P > 0.001 {
		t.Errorf("strong paired signal not detected: p=%g", res.P)
	}
}

func TestPairedTTestNoFalsePositiveRate(t *testing.T) {
	// Under the null, p should be roughly uniform: check that not too
	// many of 200 experiments fall under 0.05.
	r := rng.New(11)
	reject := 0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		n := 20
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = r.NormFloat64()
			b[i] = r.NormFloat64()
		}
		res, err := PairedTTest(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if res.P < 0.05 {
			reject++
		}
	}
	if reject > 25 { // expect ~10
		t.Errorf("null rejected %d/%d times at 5%%", reject, trials)
	}
}

func TestStudentCDFMonotoneProperty(t *testing.T) {
	f := func(raw1, raw2 int16, dfRaw uint8) bool {
		t1 := float64(raw1) / 1000
		t2 := float64(raw2) / 1000
		df := 1 + float64(dfRaw%60)
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		c1, c2 := StudentCDF(t1, df), StudentCDF(t2, df)
		return c1 <= c2+1e-12 && c1 >= 0 && c2 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkPairedTTest(b *testing.B) {
	r := rng.New(1)
	n := 30
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = r.NormFloat64()
		y[i] = r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PairedTTest(x, y)
	}
}
