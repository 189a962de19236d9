package parclass

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/flat"
	"repro/internal/sched"
	"repro/internal/tree"
)

// Forest is a bagged ensemble of decision trees trained by TrainForest:
// each member grows over a bootstrap sample with an optional per-tree
// attribute subsample, and prediction is a majority vote (ties to the
// lowest class code). A Forest is immutable once returned by TrainForest
// or ReadModel and safe for concurrent use.
//
// The forest is deterministic in (data, options, ForestSeed): member
// seeds derive from ForestSeed and the tree index alone, so changing
// Procs reschedules the same trees, never different ones.
type Forest struct {
	scorer

	sampleFrac  float64
	featureFrac float64
	seed        int64
	timings     Timings

	// oobErr and oobRows hold the out-of-bag error estimate computed by
	// TrainForest; oobRows is 0 when no estimate exists (SampleFrac 1, or
	// a forest loaded from disk).
	oobErr  float64
	oobRows int
}

func newForest(trees []*tree.Tree, sampleFrac, featureFrac float64, seed int64) *Forest {
	f := &Forest{sampleFrac: sampleFrac, featureFrac: featureFrac, seed: seed}
	f.init(trees)
	return f
}

// TrainForest grows an ensemble of opt.Trees decision trees over
// bootstrap samples of ds, scheduling whole trees across opt.Procs
// workers. With Trees=1, SampleFrac=1 and FeatureFrac at 0 or 1 the
// single member is exactly the tree Train would grow.
func TrainForest(ds *Dataset, opt Options) (*Forest, error) {
	return TrainForestContext(context.Background(), ds, opt)
}

// TrainForestContext is TrainForest with cancellation. A failing (or
// panicking) member build aborts the whole forest promptly: the first
// error cancels the context every in-flight member observes, remaining
// members are skipped, and the error comes back wrapped with the member
// tree's index.
func TrainForestContext(ctx context.Context, ds *Dataset, opt Options) (*Forest, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	nTrees := opt.Trees
	if nTrees == 0 {
		nTrees = 1
	}
	n := ds.NumRows()
	if n == 0 {
		return nil, fmt.Errorf("parclass: empty training set")
	}
	nattr := ds.NumAttrs()
	nclass := ds.tbl.Schema().NumClasses()

	// Member builds run with one worker each: trees are the parallel unit.
	memberOpt := opt
	memberOpt.Procs = 1
	memberOpt.Trees = 0
	memberOpt.SampleFrac = 0
	memberOpt.FeatureFrac = 0
	memberOpt.ForestSeed = 0
	memberOpt.Monitor = nil

	buildCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Out-of-bag scoring: each bootstrap leaves ~1/e of the rows out of
	// its member's sample, so those rows are an honest test set for that
	// member. Members vote their out-of-bag rows into one shared n×nclass
	// histogram; integer adds commute, so the estimate is deterministic
	// for every Procs. SampleFrac 1 disables sampling and with it OOB.
	var (
		oobMu    sync.Mutex
		oobVotes []int32
	)
	if opt.SampleFrac != 1 {
		oobVotes = make([]int32, n*nclass)
	}

	trees := make([]*tree.Tree, nTrees)
	tims := make([]core.Timings, nTrees)
	err := sched.Run(opt.Procs, nTrees, cancel, func(worker, idx int) error {
		if opt.forestTreeHook != nil {
			if err := opt.forestTreeHook(idx); err != nil {
				return fmt.Errorf("parclass: forest tree %d: %w", idx, err)
			}
		}
		rng := rand.New(rand.NewSource(memberSeed(opt.ForestSeed, idx)))
		tbl := ds.tbl
		var sampleIdx []int
		if opt.SampleFrac != 1 {
			sampleIdx = bootstrapIndices(rng, n, opt.SampleFrac)
			tbl = tbl.Subset(sampleIdx)
		}
		cfg := memberOpt.coreConfig()
		cfg.Context = buildCtx
		cfg.StoreWrap = opt.forestStoreWrap
		cfg.AttrMask = featureMask(rng, nattr, opt.FeatureFrac)
		tr, tm, err := core.Build(tbl, cfg)
		if err != nil {
			return fmt.Errorf("parclass: forest tree %d: %w", idx, err)
		}
		tims[idx] = tm
		// Subset shares the source table's schema, so every member already
		// points at ds's schema; assert rather than assume.
		if tr.Schema != ds.tbl.Schema() {
			return fmt.Errorf("parclass: forest tree %d: schema diverged", idx)
		}
		trees[idx] = tr
		if oobVotes != nil {
			inBag := make([]bool, n)
			for _, r := range sampleIdx {
				inBag[r] = true
			}
			// Walk the member's out-of-bag rows outside the lock, then
			// merge the votes in one short critical section.
			pred := make([]int32, n)
			for i := 0; i < n; i++ {
				if inBag[i] {
					pred[i] = -1
					continue
				}
				pred[i] = int32(tr.Predict(ds.tbl.Row(i)))
			}
			oobMu.Lock()
			for i, c := range pred {
				if c >= 0 {
					oobVotes[i*int(nclass)+int(c)]++
				}
			}
			oobMu.Unlock()
		}
		return nil
	})
	if err != nil {
		// Prefer the caller's cancellation cause over a member's wrapped
		// context error.
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}
	f := newForest(trees, opt.SampleFrac, opt.FeatureFrac, opt.ForestSeed)
	// Timings sum the members' phase work — CPU cost, not wall clock, when
	// Procs > 1.
	for _, tm := range tims {
		f.timings.Setup += tm.Setup
		f.timings.Sort += tm.Sort
		f.timings.Build += tm.Build
	}
	if oobVotes != nil {
		wrong, scored := 0, 0
		for i := 0; i < n; i++ {
			seg := oobVotes[i*nclass : (i+1)*nclass]
			total := int32(0)
			for _, v := range seg {
				total += v
			}
			if total == 0 {
				continue
			}
			scored++
			if flat.Majority(seg) != ds.tbl.Class(i) {
				wrong++
			}
		}
		if scored > 0 {
			f.oobErr = float64(wrong) / float64(scored)
			f.oobRows = scored
		}
	}
	return f, nil
}

// OOBError returns the forest's out-of-bag error estimate: each training
// row is scored by the majority vote of only the members whose bootstrap
// left it out (ties to the lowest class code, matching Predict), so the
// estimate needs no holdout set. ok is false when no estimate exists —
// SampleFrac 1 (no sampling, every member saw every row), a bootstrap
// that happened to cover all rows, or a forest loaded from disk.
func (f *Forest) OOBError() (err float64, ok bool) {
	return f.oobErr, f.oobRows > 0
}

// OOBRows reports how many training rows the OOB estimate scored (rows
// left out by at least one member's bootstrap).
func (f *Forest) OOBRows() int { return f.oobRows }

// memberSeed derives tree idx's RNG seed from the forest seed with a
// splitmix64 step, so member streams are decorrelated and independent of
// the worker that happens to build the tree.
func memberSeed(forestSeed int64, idx int) int64 {
	z := uint64(forestSeed) + uint64(idx+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// bootstrapIndices draws the member's row sample with replacement:
// ceil(frac·n) rows, n when frac is 0 (the classic bootstrap).
func bootstrapIndices(rng *rand.Rand, n int, frac float64) []int {
	k := n
	if frac > 0 && frac < 1 {
		k = int(float64(n)*frac + 0.999999)
		if k < 1 {
			k = 1
		}
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = rng.Intn(n)
	}
	return idx
}

// featureMask draws the member's attribute subsample: ceil(frac·nattr)
// attributes, at least 1; nil (all attributes) when frac is 0 or 1.
func featureMask(rng *rand.Rand, nattr int, frac float64) []bool {
	if frac == 0 || frac == 1 {
		return nil
	}
	k := int(float64(nattr)*frac + 0.999999)
	if k < 1 {
		k = 1
	}
	if k > nattr {
		k = nattr
	}
	mask := make([]bool, nattr)
	for _, a := range rng.Perm(nattr)[:k] {
		mask[a] = true
	}
	return mask
}

// Timings returns the build's wall-clock phase breakdown (zero for
// forests loaded from disk).
func (f *Forest) Timings() Timings { return f.timings }

// PredictProba classifies one named row by majority vote, also returning
// the fraction of trees voting for each class.
func (f *Forest) PredictProba(row map[string]string) (string, map[string]float64, error) {
	return f.predictOne(func(tu dataset.Tuple) error { return f.dec.named(row, tu) }, true)
}

// PredictValuesProba is PredictProba for one positional row.
func (f *Forest) PredictValuesProba(vals []string) (string, map[string]float64, error) {
	return f.predictOne(func(tu dataset.Tuple) error { return f.dec.values(vals, tu) }, true)
}

// WriteModel serializes the forest as the v2 multi-tree envelope.
func (f *Forest) WriteModel(w io.Writer) error {
	return tree.WriteForest(w, f.trees, &tree.ForestMeta{
		SampleFrac:  f.sampleFrac,
		FeatureFrac: f.featureFrac,
		Seed:        f.seed,
	})
}

// SaveModel writes the forest to the named file.
func (f *Forest) SaveModel(path string) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f.WriteModel(fh); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

// Trees exposes the member trees to in-module tooling. It is not part of
// the stable API.
func (f *Forest) Trees() []*tree.Tree { return f.trees }
