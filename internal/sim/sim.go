// Package sim is a discrete-event, virtual-time simulator of the paper's
// SMP schemes. It replays the exact scheduling policy of each scheme —
// dynamic attribute grabbing, BASIC's master-serial W phase, FWK's
// fixed-window pipelining, MWK's per-leaf condition variables, and
// SUBTREE's processor groups with a FREE queue — over the *measured*
// per-work-unit costs recorded in a trace (internal/trace) by a serial
// profiling run.
//
// This is the hardware substitution documented in DESIGN.md §2: the paper's
// results are wall-clock speedup curves on 4- and 8-way SMPs; on a host
// without multiple processors those curves cannot materialize physically,
// but every scheduling decision, barrier wait, serial bottleneck and load
// imbalance the paper studies is a function of unit costs and policy, both
// of which the simulator preserves. It never invents costs — it only
// re-orders measured ones across P virtual processors.
package sim

import (
	"fmt"

	"repro/internal/trace"
)

// Scheme selects the parallel algorithm to simulate.
type Scheme int

const (
	// Basic is the BASIC scheme (paper Fig. 3).
	Basic Scheme = iota
	// FWK is Fixed-Window-K (Fig. 4).
	FWK
	// MWK is Moving-Window-K (Fig. 6).
	MWK
	// Subtree is the SUBTREE task-parallel scheme (Fig. 7).
	Subtree
	// RecPar is the record-data-parallel baseline (§3.1).
	RecPar
	// SubtreeMWK is SUBTREE with the MWK subroutine inside each group,
	// the hybrid the paper suggests in §3.4.
	SubtreeMWK
)

// String names the scheme as the paper does.
func (s Scheme) String() string {
	switch s {
	case Basic:
		return "BASIC"
	case FWK:
		return "FWK"
	case MWK:
		return "MWK"
	case Subtree:
		return "SUBTREE"
	case RecPar:
		return "RECPAR"
	case SubtreeMWK:
		return "SUBTREE+MWK"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Params holds the synchronization cost constants, in seconds. They model
// the light-weight primitives of the paper's pthread implementation; the
// defaults are calibrated to contemporary shared-memory synchronization and
// produce the second-order effects the paper reports (MWK's per-leaf lock
// overhead growing with processors, SUBTREE's FREE-queue waits growing with
// attributes).
type Params struct {
	// Barrier is the cost of one barrier crossing per processor.
	Barrier float64
	// Lock is the cost of one dynamic-scheduling counter acquisition.
	Lock float64
	// Cond is the cost of a condition-variable wait/signal pair.
	Cond float64
	// Queue is the cost of one FREE-queue check or insertion.
	Queue float64
}

// DefaultParams returns the calibrated defaults: an uncontended atomic
// fetch-add is ~100 ns on current hardware, a barrier crossing a few µs, a
// condition-variable hand-off ~1 µs. The constants scale the second-order
// effects (per-leaf lock overhead, FREE-queue churn) against unit costs
// measured on the same hardware.
func DefaultParams() Params {
	return Params{Barrier: 5e-6, Lock: 1e-7, Cond: 1e-6, Queue: 2e-7}
}

// Result reports one simulated build.
type Result struct {
	Scheme  Scheme
	Procs   int
	WindowK int
	// BuildSeconds is the simulated wall-clock of the growth phase.
	BuildSeconds float64
	// BusySeconds[p] is processor p's total working (non-waiting) time;
	// the gap to BuildSeconds is synchronization/idle time.
	BusySeconds []float64
	// Barriers counts barrier episodes.
	Barriers int
	// Grabs counts dynamic work-unit acquisitions.
	Grabs int
}

// Efficiency returns the mean processor utilization.
func (r Result) Efficiency() float64 {
	if r.BuildSeconds == 0 || len(r.BusySeconds) == 0 {
		return 0
	}
	var busy float64
	for _, b := range r.BusySeconds {
		busy += b
	}
	return busy / (float64(len(r.BusySeconds)) * r.BuildSeconds)
}

// Simulate replays the trace under the given scheme with procs virtual
// processors. windowK is used by FWK and MWK (0 means the default 4).
func Simulate(tr *trace.Trace, scheme Scheme, procs, windowK int, p Params) (Result, error) {
	if procs < 1 {
		return Result{}, fmt.Errorf("sim: procs must be >= 1, got %d", procs)
	}
	if windowK == 0 {
		windowK = 4
	}
	if windowK < 1 {
		return Result{}, fmt.Errorf("sim: windowK must be >= 1, got %d", windowK)
	}
	if err := tr.Validate(); err != nil {
		return Result{}, err
	}
	st := &simState{tr: tr, p: p, procs: procs, windowK: windowK,
		clock: make([]float64, procs), busy: make([]float64, procs)}
	switch scheme {
	case Basic:
		st.runBasic()
	case FWK:
		st.runWindow(false)
	case MWK:
		st.runWindow(true)
	case Subtree:
		st.runSubtree()
	case RecPar:
		st.runRecPar()
	case SubtreeMWK:
		st.subtreeInnerMWK = true
		st.runSubtree()
	default:
		return Result{}, fmt.Errorf("sim: unknown scheme %d", int(scheme))
	}
	res := Result{
		Scheme: scheme, Procs: procs, WindowK: windowK,
		BuildSeconds: maxf(st.clock), BusySeconds: st.busy,
		Barriers: st.barriers, Grabs: st.grabs,
	}
	return res, nil
}

// simState carries the virtual clocks of the processors.
type simState struct {
	tr              *trace.Trace
	p               Params
	procs           int
	windowK         int
	subtreeInnerMWK bool
	clock           []float64
	busy            []float64
	barriers        int
	grabs           int
}

// exec runs a work unit of the given cost on processor w at its current
// clock, charging one dynamic-scheduling lock.
func (s *simState) exec(w int, cost float64) {
	s.clock[w] += s.p.Lock + cost
	s.busy[w] += cost
	s.grabs++
}

// barrierAll synchronizes a set of processors: every clock advances to the
// maximum plus the barrier cost.
func (s *simState) barrierAll(ws []int) float64 {
	m := 0.0
	for _, w := range ws {
		if s.clock[w] > m {
			m = s.clock[w]
		}
	}
	m += s.p.Barrier
	for _, w := range ws {
		s.clock[w] = m
	}
	s.barriers++
	return m
}

// minClockProc returns the index in ws of the processor with the smallest
// clock (ties toward the lower id, matching deterministic lock handoff).
func (s *simState) minClockProc(ws []int) int {
	best := 0
	for i := 1; i < len(ws); i++ {
		if s.clock[ws[i]] < s.clock[ws[best]] {
			best = i
		}
	}
	return best
}

// listSchedule dynamically assigns the unit costs, in order, each to the
// processor that becomes free first — exactly what grab-a-counter
// scheduling converges to in virtual time.
func (s *simState) listSchedule(ws []int, costs []float64) {
	for _, c := range costs {
		w := ws[s.minClockProc(ws)]
		s.exec(w, c)
	}
}

// runBasic simulates BASIC: per level, attribute-parallel E with dynamic
// scheduling, a barrier, the master serially doing W for every leaf, a
// barrier, attribute-parallel S, a barrier, and the level bookkeeping
// barrier (frontier swap by the master) — the engine's four.
func (s *simState) runBasic() {
	ws := identity(s.procs)
	for li := range s.tr.Levels {
		lv := &s.tr.Levels[li]
		// E: one unit per attribute covering all leaves of the level.
		eCosts := make([]float64, s.tr.NAttrs)
		sCosts := make([]float64, s.tr.NAttrs)
		var wCost float64
		for i := range lv.Leaves {
			lf := &lv.Leaves[i]
			for a := 0; a < s.tr.NAttrs; a++ {
				eCosts[a] += lf.E[a]
				sCosts[a] += lf.S[a]
			}
			wCost += lf.W
		}
		s.listSchedule(ws, eCosts)
		s.barrierAll(ws)
		// W: the pre-designated master works; everyone else sleeps at the
		// barrier — BASIC's sequential bottleneck.
		s.clock[ws[0]] += wCost
		s.busy[ws[0]] += wCost
		s.barrierAll(ws)
		s.listSchedule(ws, sCosts)
		s.barrierAll(ws)
		s.barrierAll(ws)
	}
}

func identity(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func maxf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
