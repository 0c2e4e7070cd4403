package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	usp "repro"
	"repro/internal/dataset"
	"repro/internal/knn"
)

// world is the generated input of one run: everything the program under test
// receives derives from the seed, and the same seed gives the same world.
type world struct {
	spec    *workloadSpec
	seed    int64
	train   *dataset.Dataset
	queryDS *dataset.Dataset
	rows    [][]float32 // train rows, id order
	queries [][]float32 // held out of train
	pool    [][]float32 // held out of train; the vectors writes add
	opt     usp.Options // spec.Options with the seed filled in
	outDir  string
}

func newWorld(spec *workloadSpec, seed int64, pool int, outDir string) *world {
	rng := rand.New(rand.NewSource(seed))
	base := dataset.SIFTLike(spec.Rows+spec.Queries+pool, rng)
	train, held := dataset.SplitQueries(base, spec.Queries+pool, rng)
	heldRows := held.Rows()
	w := &world{
		spec: spec, seed: seed, train: train, outDir: outDir,
		rows: train.Rows(), queries: heldRows[:spec.Queries], pool: heldRows[spec.Queries:],
		opt: spec.Options,
	}
	w.queryDS = dataset.FromRowsCopy(w.queries)
	w.opt.Seed = seed + 7
	return w
}

// phaseTimes holds the wall time of each set-up phase in seconds, plus the
// snapshot size in MB, keyed by the per-layer metric it feeds.
type phaseTimes map[string]float64

func (p phaseTimes) time(key string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	p[key] = time.Since(t0).Seconds()
	return err
}

// buildIndex runs the workload's index set-up: Build on the seed rows, Add
// of the rest, Compact, and for Reload workloads a SaveFile → LoadFile round
// trip after which the loaded index is the one served. live is the index as
// it was before the round trip (nil without one), kept so the loaded one can
// be checked against it.
func (w *world) buildIndex() (ix, live *usp.Index, phases phaseTimes, err error) {
	spec := w.spec
	phases = phaseTimes{}
	err = phases.time("usp.build_s", func() (err error) {
		ix, err = usp.Build(w.rows[:spec.SeedRows], w.opt)
		return err
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s: build: %w", spec.Name, err)
	}
	if spec.SeedRows < spec.Rows {
		err = phases.time("usp.bulk_add_s", func() error {
			for _, row := range w.rows[spec.SeedRows:] {
				if _, err := ix.Add(row); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s: bulk add: %w", spec.Name, err)
		}
		phases["usp.bulk_add_us_per_row"] = phases["usp.bulk_add_s"] * 1e6 / float64(spec.Rows-spec.SeedRows)
		_ = phases.time("usp.compact_s", func() error { ix.Compact(); return nil })
	}
	if spec.Reload {
		live = ix
		if ix, err = snapshotRoundTrip(live, w.outDir, spec.Name, phases); err != nil {
			return nil, nil, nil, fmt.Errorf("%s: %w", spec.Name, err)
		}
	}
	return ix, live, phases, nil
}

// snapshotRoundTrip saves ix to a file under dir, loads it back, removes the
// file, and records save_s, load_s and snapshot_mb.
func snapshotRoundTrip(ix *usp.Index, dir, name string, phases phaseTimes) (*usp.Index, error) {
	path := filepath.Join(dir, fmt.Sprintf("snap-%s-%d.usps", name, os.Getpid()))
	defer os.Remove(path)
	if err := phases.time("usp.save_s", func() error { return ix.SaveFile(path) }); err != nil {
		return nil, fmt.Errorf("save snapshot: %w", err)
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("save snapshot: %w", err)
	}
	phases["usp.snapshot_mb"] = float64(st.Size()) / 1e6
	var loaded *usp.Index
	err = phases.time("usp.load_s", func() (err error) {
		loaded, err = usp.LoadFile(path)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("load snapshot: %w", err)
	}
	return loaded, nil
}

// heapMB is the live heap after a full collection.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// truthOver returns each query's true top-k among the given live rows, as
// the ids those rows carry in the index (ids[i] is the id of live row i; nil
// means row i has id i).
func truthOver(live *dataset.Dataset, ids []int, queries *dataset.Dataset) [][]int32 {
	truth := knn.GroundTruth(live, queries, topK)
	if ids != nil {
		for _, row := range truth {
			for j, r := range row {
				row[j] = int32(ids[r])
			}
		}
	}
	return truth
}

// recallOf is the mean recall@k of the answers against truth.
func recallOf(answers [][]usp.Result, truth [][]int32) float64 {
	sum := 0.0
	ids := make([]int, 0, topK)
	for i, res := range answers {
		ids = ids[:0]
		for _, r := range res {
			ids = append(ids, r.ID)
		}
		sum += knn.Recall(ids, truth[i])
	}
	return sum / float64(len(answers))
}

// wellFormed is the check left when the index changes under the reader and
// no fixed answer exists: k results in ascending distance, neighbours distinct.
func wellFormed(res []usp.Result) bool {
	if len(res) != topK {
		return false
	}
	for i := 1; i < len(res); i++ {
		if res[i].Distance < res[i-1].Distance || res[i].ID == res[i-1].ID {
			return false
		}
	}
	return true
}

// reference answers every query once on a fresh Searcher: the warm-up pass,
// and the fixed answers a static index must keep giving while it is timed.
func reference(ix *usp.Index, queries [][]float32, opt usp.SearchOptions) ([][]usp.Result, error) {
	s := ix.NewSearcher()
	out := make([][]usp.Result, len(queries))
	for i, q := range queries {
		res, err := s.Search(q, topK, opt)
		if err != nil {
			return nil, fmt.Errorf("reference query %d: %w", i, err)
		}
		out[i] = res
	}
	return out, nil
}
