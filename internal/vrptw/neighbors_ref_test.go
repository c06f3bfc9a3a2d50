package vrptw

// This file freezes the granular neighbor-list build as it stood before
// the full build ranked the arc bitset's set bits: every row scans all
// sites, tests each arc's admissibility with arcScore and keeps the k
// best by bounded insertion. TestNeighborListsMatchReference holds the
// production lists — full builds and mutation repairs alike — to this
// copy row for row. Do not edit the copy.

// refScoredArc is one admissible successor j of a row and its score.
type refScoredArc struct {
	j     int32
	score float64
}

// refArcScore returns the granular ranking score of arc i -> j and
// whether the arc is admissible at all.
func refArcScore(in *Instance, i, j int) (float64, bool) {
	arrive := in.DepartReady(i) + in.Dist(i, j)
	if arrive > in.Sites[j].Due {
		return 0, false
	}
	wait := in.Sites[j].Ready - arrive
	if wait < 0 {
		wait = 0
	}
	return in.Dist(i, j) + wait, true
}

// refNeighborRow derives site i's up-to-k best-first successor list.
func refNeighborRow(in *Instance, i, k int) []int32 {
	var best []refScoredArc
	for j := 1; j < len(in.Sites); j++ {
		if j == i {
			continue
		}
		score, ok := refArcScore(in, i, j)
		if !ok {
			continue
		}
		if len(best) == k && score >= best[k-1].score {
			continue
		}
		pos := len(best)
		for pos > 0 && best[pos-1].score > score {
			pos--
		}
		if len(best) < k {
			best = append(best, refScoredArc{})
		}
		copy(best[pos+1:], best[pos:len(best)-1])
		best[pos] = refScoredArc{j: int32(j), score: score}
	}
	list := make([]int32, len(best))
	for x, a := range best {
		list[x] = a.j
	}
	return list
}
