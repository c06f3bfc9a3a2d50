// Package stats provides the descriptive statistics and the significance
// test used in the paper's evaluation: mean ± standard deviation for the
// result tables, and the pairwise (paired) t-test of §IV ("To test the
// statistical significance a pairwise t-test was performed on the
// results"). The Student-t CDF is computed from scratch through the
// regularized incomplete beta function (Lentz's continued fraction).
package stats

import (
	"errors"
	"math"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation (n-1 denominator); 0 for
// fewer than two values.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Variance returns the sample variance (n-1 denominator); 0 for fewer than
// two values.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// MeanStd returns mean and sample standard deviation in one pass over the
// summary helpers.
func MeanStd(xs []float64) (mean, std float64) {
	return Mean(xs), StdDev(xs)
}

// TTestResult reports a t-test.
type TTestResult struct {
	T  float64 // test statistic
	DF float64 // degrees of freedom
	P  float64 // two-sided p-value
}

// PairedTTest performs the paper's pairwise t-test on matched samples
// (e.g. per-run distances of two algorithms on the same instances and
// seeds). It errors on mismatched or too-short inputs. A zero-variance
// difference vector with non-zero mean yields P=0; with zero mean, P=1.
func PairedTTest(a, b []float64) (TTestResult, error) {
	if len(a) != len(b) {
		return TTestResult{}, errors.New("stats: paired samples must have equal length")
	}
	n := len(a)
	if n < 2 {
		return TTestResult{}, errors.New("stats: need at least two pairs")
	}
	d := make([]float64, n)
	for i := range a {
		d[i] = a[i] - b[i]
	}
	md := Mean(d)
	sd := StdDev(d)
	df := float64(n - 1)
	if sd == 0 {
		if md == 0 {
			return TTestResult{T: 0, DF: df, P: 1}, nil
		}
		return TTestResult{T: math.Inf(sign(md)), DF: df, P: 0}, nil
	}
	t := md / (sd / math.Sqrt(float64(n)))
	return TTestResult{T: t, DF: df, P: twoSidedP(t, df)}, nil
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// twoSidedP returns the two-sided p-value of a t statistic with df degrees
// of freedom: P = I_{df/(df+t²)}(df/2, 1/2).
func twoSidedP(t, df float64) float64 {
	x := df / (df + t*t)
	return RegIncBeta(df/2, 0.5, x)
}

// StudentCDF returns P(T <= t) for Student's t-distribution with df
// degrees of freedom.
func StudentCDF(t, df float64) float64 {
	if t == 0 {
		return 0.5
	}
	p := RegIncBeta(df/2, 0.5, df/(df+t*t)) / 2
	if t > 0 {
		return 1 - p
	}
	return p
}

// RegIncBeta computes the regularized incomplete beta function I_x(a, b)
// using the continued-fraction expansion (Numerical Recipes style, Lentz's
// method), accurate to ~1e-12 for moderate a, b.
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b)
	front := math.Exp(lbeta + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// betaCF evaluates the continued fraction for the incomplete beta function
// by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		aa := float64(m) * (b - float64(m)) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}
