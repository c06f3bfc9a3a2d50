// Package flight is the search flight recorder's format: the solver's
// periodic convergence samples (hypervolume, spacing, archive sizes, best
// feasible distance and vehicles), annotated with per-operator accept
// rates and mutation markers, that the solver service keeps per job, serves
// over HTTP (GET /v1/jobs/{id}/flight) and cmd/tsmo-compare diffs across
// runs.
//
// Samples carry only run-deterministic fields — evaluation counts,
// modeled time, front metrics — never wall-clock timestamps, so two
// recordings of the same instance/seed/config on the sim backend are
// bit-identical and diff to zero (the regression-triage baseline).
package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/telemetry"
)

// Sample is one convergence observation on the sampling grid: the
// solver's sample plus the two annotations the service owns.
type Sample struct {
	telemetry.ConvergenceSample
	// AcceptRates maps operator name to accepted/proposed at sample time.
	AcceptRates map[string]float64
	// Marker tags the first sample after a discrete run event — a dynamic
	// mutation epoch, say ("mutation@12"). Markers are derived from the
	// run-deterministic mutation log, so identical replays carry identical
	// markers and tsmo-compare can align recordings across a mutation.
	Marker string
}

// EvalsPerSec is the evaluation throughput up to the sample.
func (s Sample) EvalsPerSec() float64 {
	if s.Time > 0 {
		return float64(s.Evals) / s.Time
	}
	return 0
}

// annotations is the part of a sample's wire form beyond the solver's.
type annotations struct {
	EvalsPerSec float64            `json:"evals_per_sec"`
	AcceptRates map[string]float64 `json:"accept_rates,omitempty"`
	Marker      string             `json:"marker,omitempty"`
}

// MarshalJSON renders the sample as one flat object. Sample must declare
// it: the embedded sample's MarshalJSON would otherwise be promoted and
// drop the annotations.
func (s Sample) MarshalJSON() ([]byte, error) {
	b, err := json.Marshal(s.ConvergenceSample)
	if err != nil {
		return nil, err
	}
	a, err := json.Marshal(annotations{s.EvalsPerSec(), s.AcceptRates, s.Marker})
	if err != nil {
		return nil, err
	}
	// Both objects are non-empty: splice a's members into b.
	return append(append(b[:len(b)-1], ','), a[1:]...), nil
}

// UnmarshalJSON decodes the flat object; evals_per_sec is derived, so it
// is not read back.
func (s *Sample) UnmarshalJSON(data []byte) error {
	var a annotations
	if err := json.Unmarshal(data, &a); err != nil {
		return err
	}
	s.AcceptRates, s.Marker = a.AcceptRates, a.Marker
	return json.Unmarshal(data, &s.ConvergenceSample)
}

// Recording is a complete flight recording: the job's identity plus every
// retained sample in observation order. This is the /v1/jobs/{id}/flight
// payload and the cmd/tsmo-compare input format.
type Recording struct {
	Job         string   `json:"job,omitempty"`
	Instance    string   `json:"instance"`
	Algorithm   string   `json:"algorithm"`
	Seed        int64    `json:"seed"`
	SampleEvery int      `json:"sample_every"`
	Dropped     int64    `json:"dropped"`
	Samples     []Sample `json:"samples"`
}

// DefaultRingCap bounds the samples a job's flight recording keeps, the
// newest ones.
const DefaultRingCap = 1024

// DeltaRow is one aligned interval of a recording diff: the two runs'
// samples at the same evaluation count.
type DeltaRow struct{ A, B Sample }

// DeltaHV is B's hypervolume minus A's.
func (r DeltaRow) DeltaHV() float64 { return r.B.Hypervolume - r.A.Hypervolume }

// Diff aligns two recordings on their evaluation grid (the intersection
// of sampled Evals values) and returns per-interval rows plus how many
// samples of each side had no counterpart. Same instance/seed/config
// recordings share the grid exactly, so onlyA/onlyB == 0 there.
func Diff(a, b Recording) (rows []DeltaRow, onlyA, onlyB int) {
	bByEvals := make(map[int]Sample, len(b.Samples))
	for _, s := range b.Samples {
		bByEvals[s.Evals] = s
	}
	matchedB := make(map[int]bool, len(b.Samples))
	for _, sa := range a.Samples {
		sb, ok := bByEvals[sa.Evals]
		if !ok {
			onlyA++
			continue
		}
		matchedB[sa.Evals] = true
		rows = append(rows, DeltaRow{A: sa, B: sb})
	}
	for _, s := range b.Samples {
		if !matchedB[s.Evals] {
			onlyB++
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].A.Evals < rows[j].A.Evals })
	return rows, onlyA, onlyB
}

// MaxAbsDeltaHV returns the largest absolute hypervolume delta across the
// rows — the single number a regression gate thresholds on.
func MaxAbsDeltaHV(rows []DeltaRow) float64 {
	m := 0.0
	for _, r := range rows {
		if d := math.Abs(r.DeltaHV()); d > m {
			m = d
		}
	}
	return m
}

// WriteTable renders the convergence-delta table.
func WriteTable(w io.Writer, rows []DeltaRow) error {
	if _, err := fmt.Fprintf(w, "%12s %14s %14s %12s %10s %10s %8s\n",
		"evals", "hv_a", "hv_b", "delta_hv", "spacing_a", "spacing_b", "archive"); err != nil {
		return err
	}
	for _, r := range rows {
		arch := fmt.Sprintf("%d/%d", r.A.ArchiveSize, r.B.ArchiveSize)
		if _, err := fmt.Fprintf(w, "%12d %14.6g %14.6g %+12.6g %10.4g %10.4g %8s\n", r.A.Evals, r.A.Hypervolume,
			r.B.Hypervolume, r.DeltaHV(), r.A.Spacing, r.B.Spacing, arch); err != nil {
			return err
		}
	}
	return nil
}
