package vrptw

import "math"

// This file freezes the distance matrix as the instance kept it before
// Dist computed each distance from the coordinates: New's half-matrix
// fill, AddSite's new row and column, and RemoveSite's row copies
// (UpdateWindow and UpdateDemand shared the parent's matrix).
// TestDistMatchesMatrixReference holds Dist to it bit for bit. Do not
// edit the copy.

// refMatrix is a row-major (N+1)×(N+1) distance matrix.
type refMatrix struct {
	n    int
	dist []float64
}

// refFill is New's fill: each pair computed once, lower index first, and
// stored in both orientations; the diagonal stays 0.
func refFill(sites []Site) refMatrix {
	n := len(sites)
	m := refMatrix{n: n, dist: make([]float64, n*n)}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx := sites[i].X - sites[j].X
			dy := sites[i].Y - sites[j].Y
			d := math.Sqrt(dx*dx + dy*dy)
			m.dist[i*n+j] = d
			m.dist[j*n+i] = d
		}
	}
	return m
}

// refAddSite is AddSite's matrix for new site s appended to sites: the
// parent's rows copied, the new row and column computed from each
// existing site to s.
func refAddSite(m refMatrix, sites []Site, s Site) refMatrix {
	n := m.n
	nn := n + 1
	d := refMatrix{n: nn, dist: make([]float64, nn*nn)}
	for i := 0; i < n; i++ {
		copy(d.dist[i*nn:i*nn+n], m.dist[i*n:(i+1)*n])
		dx := sites[i].X - s.X
		dy := sites[i].Y - s.Y
		dd := math.Sqrt(dx*dx + dy*dy)
		d.dist[i*nn+n] = dd
		d.dist[n*nn+i] = dd
	}
	return d
}

// refRemoveSite is RemoveSite's matrix: every row and column but id's,
// the indices above id shifted down by one.
func refRemoveSite(m refMatrix, id int) refMatrix {
	n := m.n
	nn := n - 1
	d := refMatrix{n: nn, dist: make([]float64, nn*nn)}
	for oi := 0; oi < n; oi++ {
		if oi == id {
			continue
		}
		ni := oi
		if oi > id {
			ni--
		}
		row := m.dist[oi*n : (oi+1)*n]
		copy(d.dist[ni*nn:ni*nn+id], row[:id])
		copy(d.dist[ni*nn+id:(ni+1)*nn], row[id+1:])
	}
	return d
}
