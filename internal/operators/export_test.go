package operators

// helperStarts returns how many helper goroutines g's sweeps have started.
func (g *Generator) helperStarts() int { return g.sw.starts }

// helperRunning reports whether g's helper goroutine is live.
func (g *Generator) helperRunning() bool { return g.sw.running.Load() }

// helperMoves returns how many moves g's helper evaluated in its last
// sweep.
func (g *Generator) helperMoves() int { return int(g.sw.done.Load()) }
