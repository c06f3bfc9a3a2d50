package deme

// ProcStats summarizes one process's activity during a Run, for
// utilization analyses (e.g. how long a synchronous master sat in the
// barrier versus an asynchronous one).
type ProcStats struct {
	// Compute is the modeled CPU time (simulator) charged via Compute,
	// including machine noise. Always 0 on the goroutine backend.
	Compute float64
	// Blocked is the time spent waiting inside blocking receives.
	Blocked float64
	// MsgsSent and MsgsReceived count delivered messages.
	MsgsSent, MsgsReceived int
	// BytesSent accumulates the modeled payload sizes sent.
	BytesSent int
	// End is the process's clock when its body returned.
	End float64
}

// Utilization returns the fraction of the process's lifetime spent
// computing (0 when the lifetime is 0 or on the goroutine backend).
func (s ProcStats) Utilization() float64 {
	if s.End <= 0 {
		return 0
	}
	return s.Compute / s.End
}

// Stats implements Runtime for the simulator.
func (s *Sim) Stats() []ProcStats { return s.stats }

// Stats implements Runtime for the goroutine backend (message counts
// only; times are not modeled there).
func (g *Goroutine) Stats() []ProcStats { return g.stats }
