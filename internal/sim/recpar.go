package sim

// runRecPar simulates the record-data-parallel baseline: every (leaf,
// attribute) work unit is split across all P processors as contiguous
// record chunks, at the price of per-unit synchronization:
//
//   - a continuous E unit takes two scans (chunk histograms, then seeded
//     candidate scoring) and two barriers; the measured cost E[a] covers
//     one evaluating scan, and the counting pass is charged at half that
//     (no gini bookkeeping), so the parallel work is 1.5·E[a]/P;
//   - every leaf, split or not, crosses four more barriers: the close of
//     E, the master's vote, the chunked probe scan (W/P, charged only when
//     the leaf splits) and the master's merge and child registration;
//   - an S unit takes a counting pass plus a writing pass (1.5·S[a]/P) and
//     two barriers for the prefix-sum exchange;
//   - two barriers close each level: one before the master builds the next
//     frontier and one after.
//
// The Θ(leaves × attributes) barriers per level — versus BASIC's constant
// four — are the "excessive synchronization" the paper predicts for this
// design on SMP hardware. The count is the engine's exactly.
func (s *simState) runRecPar() {
	ws := identity(s.procs)
	P := float64(s.procs)
	for li := range s.tr.Levels {
		lv := &s.tr.Levels[li]
		for j := range lv.Leaves {
			lf := &lv.Leaves[j]
			// E units.
			for a := 0; a < s.tr.NAttrs; a++ {
				s.chunkUnit(ws, 1.5*lf.E[a]/P, 2)
			}
			s.barrierAll(ws) // close of E
			s.barrierAll(ws) // the master's vote
			if !lf.Split {
				s.barrierAll(ws) // an empty probe scan
				s.barrierAll(ws) // no children to register
				continue
			}
			// W unit: probe scan, then merge and child registration.
			s.chunkUnit(ws, lf.W/P, 2)
			// S units.
			for a := 0; a < s.tr.NAttrs; a++ {
				s.chunkUnit(ws, 1.5*lf.S[a]/P, 2)
			}
		}
		// Level bookkeeping: close the level, then publish the frontier.
		s.barrierAll(ws)
		s.barrierAll(ws)
	}
}

// chunkUnit charges every processor the chunked work plus the unit's
// barriers.
func (s *simState) chunkUnit(ws []int, perProc float64, barriers int) {
	for _, w := range ws {
		s.clock[w] += s.p.Lock + perProc
		s.busy[w] += perProc
	}
	s.grabs++
	for b := 0; b < barriers; b++ {
		s.barrierAll(ws)
	}
}
