package vrptw

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Class identifies an instance family in the style of the Solomon /
// Homberger benchmark sets. The letter encodes customer geometry
// (R random, C clustered, RC mixed); the digit encodes the scheduling
// regime (1 = short horizon, small capacity, narrow windows — many short
// routes; 2 = long horizon, large capacity, wide windows — few long routes).
type Class int

// Instance classes.
const (
	R1 Class = iota
	C1
	RC1
	R2
	C2
	RC2
)

var classNames = [...]string{"R1", "C1", "RC1", "R2", "C2", "RC2"}

// String returns the conventional class name, e.g. "C1".
func (c Class) String() string {
	if c < 0 || int(c) >= len(classNames) {
		return fmt.Sprintf("Class(%d)", int(c))
	}
	return classNames[c]
}

// ParseClass converts a class name such as "R1" or "rc2" to a Class.
func ParseClass(s string) (Class, error) {
	for i, n := range classNames {
		if equalFold(s, n) {
			return Class(i), nil
		}
	}
	return 0, fmt.Errorf("vrptw: unknown instance class %q", s)
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'a' <= ca && ca <= 'z' {
			ca -= 'a' - 'A'
		}
		if 'a' <= cb && cb <= 'z' {
			cb -= 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// Type1 reports whether the class is a short-horizon ("1") class.
func (c Class) Type1() bool { return c == R1 || c == C1 || c == RC1 }

// Clustered reports whether customer positions are (partly) clustered.
func (c Class) Clustered() bool { return c == C1 || c == C2 || c == RC1 || c == RC2 }

// GenConfig parameterizes Generate. Zero-valued optional fields are filled
// with class defaults documented on each field.
type GenConfig struct {
	Class Class
	N     int    // number of customers; required, >= 1
	Seed  uint64 // generator seed; instances are deterministic in (Class, N, Seed)

	// Vehicles is the fleet bound R. Default: max(N/4, capacity lower
	// bound + 2), matching the paper's 25 vehicles per 100 customers.
	Vehicles int
	// Capacity m. Default: 200 for type-1 classes, 700 (C2) or 1000
	// (R2, RC2) for type-2 classes, as in the Solomon sets.
	Capacity float64
	// WindowDensity in (0,1] is the fraction of customers with a
	// restrictive time window; the rest may be serviced any time within
	// the horizon. Default 1.0.
	WindowDensity float64
}

// Generate builds an extended-Solomon-style CVRPTW instance. It stands in
// for the Homberger 400/600-city problem set used in the paper (see
// DESIGN.md §2): geometry, horizon, capacity, window width and fleet size
// follow the published class conventions, scaled with N so that customer
// density and route lengths stay comparable across sizes.
func Generate(cfg GenConfig) (*Instance, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("vrptw: Generate needs N >= 1, got %d", cfg.N)
	}
	if cfg.Class < R1 || cfg.Class > RC2 {
		return nil, fmt.Errorf("vrptw: invalid class %d", int(cfg.Class))
	}
	density := cfg.WindowDensity
	if density == 0 {
		density = 1
	}
	if density < 0 || density > 1 {
		return nil, fmt.Errorf("vrptw: window density %g outside (0, 1]", density)
	}

	capacity := cfg.Capacity
	if capacity == 0 {
		switch cfg.Class {
		case C2:
			capacity = 700
		case R2, RC2:
			capacity = 1000
		default:
			capacity = 200
		}
	}

	r := rng.New(cfg.Seed ^ uint64(cfg.Class)<<32 ^ uint64(cfg.N))

	// The coordinate grid grows with sqrt(N) to keep density constant;
	// N=100 yields the classic [0,100] Solomon grid.
	grid := 100 * math.Sqrt(float64(cfg.N)/100)

	sites := make([]Site, cfg.N+1)
	placeCustomers(r, cfg.Class, grid, sites)

	// Service times follow Solomon: long (90) at clustered customers,
	// short (10) at random ones.
	const (
		serviceClustered = 90.0
		serviceRandom    = 10.0
	)

	var meanDemand float64
	for i := 1; i <= cfg.N; i++ {
		sites[i].ID = i
		sites[i].Demand = float64(1 + r.Intn(35)) // mean 18, max 35 << capacity
		meanDemand += sites[i].Demand
	}
	meanDemand /= float64(cfg.N)

	// Expected inter-customer hop length, used to size the horizon and
	// the time windows relative to route granularity.
	hop := 0.9 * grid / math.Sqrt(float64(cfg.N))
	if cfg.Class == C1 || cfg.Class == C2 {
		hop *= 0.5 // clusters shorten typical hops
	}
	service := serviceRandom
	if cfg.Class == C1 || cfg.Class == C2 {
		service = serviceClustered
	}

	// Horizon: enough for a route that fills a vehicle, plus slack and
	// the trip out and back.
	routeCustomers := capacity / meanDemand
	horizon := 1.25*routeCustomers*(service+hop) + 2.2*grid/2
	depot := Site{ID: 0, X: grid / 2, Y: grid / 2, Ready: 0, Due: horizon}
	sites[0] = depot

	// Window width relative to (service + hop): type-1 classes get tight
	// windows, type-2 classes loose ones.
	var wloF, whiF float64
	if cfg.Class.Type1() {
		wloF, whiF = 0.5, 2.0
	} else {
		wloF, whiF = 4.0, 12.0
	}

	origin := point{depot.X, depot.Y}
	for i := 1; i <= cfg.N; i++ {
		s := &sites[i]
		if cfg.Class == C1 || cfg.Class == C2 {
			s.Service = serviceClustered
		} else {
			// RC classes mix: clustered customers get long service.
			if s.Service == 0 {
				s.Service = serviceRandom
			}
		}
		out := origin.dist(point{s.X, s.Y})      // depot -> i travel
		latestStart := horizon - s.Service - out // must still return in time
		earliest := out                          // cannot arrive before this
		if latestStart < earliest {
			// Pathological placement (can only happen with tiny
			// overridden horizons); pin the window to the edge.
			latestStart = earliest
		}
		if r.Float64() >= density {
			s.Ready, s.Due = 0, latestStart
			continue
		}
		width := (wloF + r.Float64()*(whiF-wloF)) * (s.Service + hop)
		center := earliest + r.Float64()*(latestStart-earliest)
		s.Ready = math.Max(0, center-width/2)
		s.Due = math.Min(latestStart, center+width/2)
		if s.Due < earliest {
			s.Due = earliest // keep every customer individually reachable
		}
		if s.Ready > s.Due {
			s.Ready = s.Due
		}
	}

	vehicles := cfg.Vehicles
	if vehicles == 0 {
		var total float64
		for i := 1; i <= cfg.N; i++ {
			total += sites[i].Demand
		}
		lower := int(math.Ceil(total/capacity)) + 2
		vehicles = cfg.N / 4
		if vehicles < lower {
			vehicles = lower
		}
	}

	name := fmt.Sprintf("%s-%d-s%d", cfg.Class, cfg.N, cfg.Seed)
	return New(name, sites, vehicles, capacity)
}

// placeCustomers fills sites[1:] X/Y (and pre-marks RC clustered customers
// with the long service time so the caller can tell them apart).
func placeCustomers(r *rng.Rand, class Class, grid float64, sites []Site) {
	n := len(sites) - 1
	uniform := func(i int) {
		sites[i].X = r.Float64() * grid
		sites[i].Y = r.Float64() * grid
	}
	switch class {
	case R1, R2:
		for i := 1; i <= n; i++ {
			uniform(i)
		}
	case C1, C2:
		placeClustered(r, grid, sites, 1, n)
	case RC1, RC2:
		half := n / 2
		placeClustered(r, grid, sites, 1, half)
		for i := 1; i <= half; i++ {
			sites[i].Service = 90 // marker consumed by Generate
		}
		for i := half + 1; i <= n; i++ {
			uniform(i)
		}
	}
}

// placeClustered scatters customers lo..hi around ~1 cluster seed per 10
// customers, truncating positions to the grid.
func placeClustered(r *rng.Rand, grid float64, sites []Site, lo, hi int) {
	n := hi - lo + 1
	if n <= 0 {
		return
	}
	clusters := n / 10
	if clusters < 3 {
		clusters = 3
	}
	cx := make([]float64, clusters)
	cy := make([]float64, clusters)
	for c := range cx {
		cx[c] = r.Float64() * grid
		cy[c] = r.Float64() * grid
	}
	sigma := 0.035 * grid
	for i := lo; i <= hi; i++ {
		c := r.Intn(clusters)
		sites[i].X = clamp(cx[c]+r.NormFloat64()*sigma, 0, grid)
		sites[i].Y = clamp(cy[c]+r.NormFloat64()*sigma, 0, grid)
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
