// Package dynamic is the online (dynamic) VRPTW subsystem: an
// event-sourced stream of instance mutations that turns a running job into
// a re-optimization session. A Mutation is a versioned, validated change
// to the live instance (a customer arriving or canceling, a time window
// shifting, a demand update). Mutations are grouped into epochs pinned to
// checkpoint barriers of the run; at an epoch the run halts on its
// ordinary checkpoint barrier, Schedule.Apply splices the changes into a
// derived instance (which carries its parent's neighbor lists over, see
// vrptw's mutate primitives), repairs every checkpoint part so its
// solutions stay complete and capacity-sane (orphaned customers
// re-inserted greedily via internal/construct, dominated archive members
// re-filtered via pareto), and the run warm-restarts from the patched
// checkpoint.
//
// Everything is deterministic in (seed, mutation log): replaying the same
// mutations at the same epochs reproduces the run bit-identically on the
// simulator backend, and applying a mutation to a live run at epoch E is
// the same as resuming the barrier-E checkpoint, applying it offline, and
// running on.
package dynamic

import (
	"fmt"

	"repro/internal/vrptw"
)

// Version is the mutation format version; Project and Schedule.Apply
// reject others.
const Version = 1

// Op enumerates the mutation kinds.
type Op string

// The four mutation kinds.
const (
	AddCustomer    Op = "add_customer"
	CancelCustomer Op = "cancel_customer"
	ShiftWindow    Op = "shift_window"
	UpdateDemand   Op = "update_demand"
)

// Mutation is one versioned change to a live instance. Customer indices
// refer to the instance as projected through every earlier mutation of the
// log (including earlier entries of the same batch).
type Mutation struct {
	Version int `json:"version"`
	Op      Op  `json:"op"`
	// Site is the AddCustomer payload. Its ID must be 0 (assigned on
	// apply).
	Site *vrptw.Site `json:"site,omitempty"`
	// Customer targets CancelCustomer / ShiftWindow / UpdateDemand.
	Customer int `json:"customer,omitempty"`
	// Ready and Due are the ShiftWindow payload.
	Ready float64 `json:"ready,omitempty"`
	Due   float64 `json:"due,omitempty"`
	// Demand is the UpdateDemand payload.
	Demand float64 `json:"demand,omitempty"`
}

// apply derives the mutated instance. removed is the index of the
// customer of in a cancel removed, every later index shifting down by
// one; added is the derived-instance index of a newly added customer.
// Each is -1 when the mutation removed or added none.
func (m *Mutation) apply(in *vrptw.Instance) (d *vrptw.Instance, removed, added int, err error) {
	if m.Version != Version {
		return nil, -1, -1, fmt.Errorf("dynamic: unsupported mutation version %d (want %d)", m.Version, Version)
	}
	removed, added = -1, -1
	switch m.Op {
	case AddCustomer:
		if m.Site == nil {
			return nil, -1, -1, fmt.Errorf("dynamic: add_customer needs a site payload")
		}
		d, err = in.AddSite(*m.Site)
		added = in.N() + 1 // AddSite appends: the new customer is site N
	case CancelCustomer:
		d, err = in.RemoveSite(m.Customer)
		removed = m.Customer
	case ShiftWindow:
		d, err = in.UpdateWindow(m.Customer, m.Ready, m.Due)
	case UpdateDemand:
		d, err = in.UpdateDemand(m.Customer, m.Demand)
	default:
		return nil, -1, -1, fmt.Errorf("dynamic: unknown mutation op %q", m.Op)
	}
	return d, removed, added, err
}

// String renders the mutation for logs and error messages.
func (m *Mutation) String() string {
	switch m.Op {
	case AddCustomer:
		if m.Site == nil {
			return "add_customer(<nil>)"
		}
		return fmt.Sprintf("add_customer(x=%g y=%g demand=%g window=[%g,%g])",
			m.Site.X, m.Site.Y, m.Site.Demand, m.Site.Ready, m.Site.Due)
	case CancelCustomer:
		return fmt.Sprintf("cancel_customer(%d)", m.Customer)
	case ShiftWindow:
		return fmt.Sprintf("shift_window(%d, [%g,%g])", m.Customer, m.Ready, m.Due)
	case UpdateDemand:
		return fmt.Sprintf("update_demand(%d, %g)", m.Customer, m.Demand)
	}
	return string(m.Op)
}

// Project applies every mutation in order to in and returns the projected
// instance, or the error of the first mutation that does not apply (so a
// caller that must skip invalid mutations, as Schedule.Apply does,
// projects one mutation at a time). The service validates incoming
// mutations against the projection of everything already queued.
func Project(in *vrptw.Instance, muts []Mutation) (*vrptw.Instance, error) {
	cur := in
	for i := range muts {
		d, _, _, err := muts[i].apply(cur)
		if err != nil {
			return nil, fmt.Errorf("dynamic: mutation %d (%s): %w", i, muts[i].String(), err)
		}
		cur = d
	}
	return cur, nil
}

// Report summarizes one applied epoch. Schedule.OnApplied receives it
// (the service renders it as the job's "mutations" event) and
// Schedule.Reports returns every one (the service sums them into the
// job's status).
type Report struct {
	// Epoch is the checkpoint barrier the mutations were applied at.
	Epoch int `json:"epoch"`
	// Applied and Rejected count the epoch's mutations.
	Applied  int `json:"applied"`
	Rejected int `json:"rejected"`
	// Orphans counts customers greedily re-inserted into part solutions
	// (new arrivals plus capacity ejections), summed over all parts.
	Orphans int `json:"orphans"`
	// Invalidated counts part solutions dropped (dominated after repair)
	// or patched (routes changed), summed over all parts.
	Invalidated int `json:"invalidated"`
	// PendingDropped counts asynchronous pending candidates discarded at
	// the mutation barrier — the iterations lost to the warm restart.
	PendingDropped int `json:"pending_dropped"`
	// Seconds is the wall time of the splice+repair pass.
	Seconds float64 `json:"seconds"`
}
