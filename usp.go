// Package usp is the public API of this repository: an implementation of
// "Unsupervised Space Partitioning for Nearest Neighbor Search" (Fahim, Ali
// & Cheema, EDBT 2023).
//
// The package trains a neural (or logistic-regression) model to partition a
// vector dataset into bins with the paper's unsupervised two-term loss — a
// quality cost keeping k′-NN neighborhoods together and a computational cost
// keeping bins balanced — and answers approximate k-NN queries by probing
// the most probable bins. Ensembles of complementary partitions and
// hierarchical (recursive) partitioning are supported, as are plain
// clustering labels (the paper's §5.5 usage).
//
// Quick start:
//
//	ix, err := usp.Build(vectors, usp.Options{Bins: 16, Ensemble: 3})
//	...
//	results, err := ix.Search(query, 10, usp.SearchOptions{Probes: 2})
//
// A built index is a live, mutable collection: Add routes new vectors in
// without retraining, Delete tombstones existing ones, a background
// compactor folds both back into the contiguous lookup tables, and
// Save/Load round-trip the whole index — models, tables, dataset, norm
// cache, tombstones — through a single self-contained snapshot file.
// Queries are lock-free: they resolve an atomically published immutable
// epoch, so readers never contend with writers or with compaction.
//
// The internal packages additionally contain every baseline the paper
// evaluates against (Neural LSH, K-means, LSH, partitioning trees, ScaNN,
// HNSW, IVF-PQ, DBSCAN, spectral clustering); see DESIGN.md.
package usp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/par"
	"repro/internal/quant"
)

// ErrInvalid marks errors caused by an invalid caller-supplied argument
// (non-positive k, negative probes, a query or vector of the wrong
// dimension). HTTP layers map errors.Is(err, ErrInvalid) to 400 so clients
// — and the fan-out front's retry logic — can tell a request they must fix
// from a server fault worth retrying on a replica.
var ErrInvalid = errors.New("usp: invalid argument")

// maxSqNorm is the largest squared norm ValidateVector admits.
const maxSqNorm = math.MaxFloat32 / 8

// ValidateVector returns an ErrInvalid error if v has a NaN or ±Inf
// component, or a squared norm above MaxFloat32/8, in one pass that
// allocates nothing for a vector it admits. Build, Add, every search entry
// point and Load apply it.
//
// A non-finite coordinate makes every distance to or from the vector NaN,
// and NaN is unordered against every distance, so the top-k's selection
// would no longer be by distance. A finite
// vector can overflow all the same: a row of 1e20s has a squared norm of
// 8e40 in float32, which is +Inf. The bound B = MaxFloat32/8 rules that
// out. The norm is summed in float64, where no float32 input overflows it.
// For two admitted vectors a and b, the triangle inequality gives
// ‖a−b‖² ≤ (‖a‖+‖b‖)² ≤ 4B, and Cauchy–Schwarz bounds |a·b| by B, so every
// partial sum of the kernels' float32 forms — Σ(aᵢ−bᵢ)², and
// ‖a‖² + ‖b‖² − 2a·b — stays within 4B = MaxFloat32/2 in exact arithmetic.
// The remaining factor 2 covers float32 rounding, which over the 2^20 terms
// of the widest row a snapshot admits grows a sum by less than
// (1+2^-24)^(2^20) < 1.07. So every squared distance between two admitted
// vectors is finite.
func ValidateVector(v []float32) error {
	var sq float64
	for _, x := range v {
		sq += float64(x) * float64(x)
	}
	if sq <= maxSqNorm { // false for NaN
		return nil
	}
	for i, x := range v {
		if x-x != 0 { // NaN−NaN and Inf−Inf are NaN; NaN != 0
			return fmt.Errorf("%w: component %d is %v", ErrInvalid, i, x)
		}
	}
	return fmt.Errorf("%w: squared norm %.3g exceeds %.3g", ErrInvalid, sq, maxSqNorm)
}

// validateCorpus returns an ErrInvalid error unless the vectors Build or
// Cluster trains on are non-empty, share one nonzero width, and pass
// ValidateVector.
func validateCorpus(vectors [][]float32) error {
	if len(vectors) == 0 || len(vectors[0]) == 0 {
		return fmt.Errorf("%w: empty corpus or zero-width vectors", ErrInvalid)
	}
	dim := len(vectors[0])
	for i, v := range vectors {
		if len(v) != dim {
			return fmt.Errorf("%w: vector %d has dim %d, vector 0 has %d", ErrInvalid, i, len(v), dim)
		}
		if err := ValidateVector(v); err != nil {
			return fmt.Errorf("vector %d: %w", i, err)
		}
	}
	return nil
}

// ErrNotFound marks errors about an id that does not exist (or no longer
// exists) in the index, such as deleting an unknown or already-deleted id.
var ErrNotFound = errors.New("usp: not found")

// Options configures Build.
type Options struct {
	// Bins is the number of partition cells m (default 16). When
	// Hierarchy is non-empty it is ignored in favor of the level product.
	Bins int
	// KPrime is the neighborhood width k′ of the offline k′-NN matrix
	// (default 10, the paper's choice).
	KPrime int
	// Eta is the balance weight η of the loss. nil selects the paper's
	// default of 10; Float(0) disables the balance term explicitly (a
	// meaningful zero a plain float field could not express).
	Eta *float64
	// Epochs of training per model (default 60).
	Epochs int
	// BatchSize for mini-batch sampling (default max(64, n/25) ≈ 4%).
	BatchSize int
	// Hidden lists MLP hidden widths (default [128], the paper's network;
	// set Logistic to force a linear model instead).
	Hidden []int
	// Logistic selects the single-layer logistic-regression architecture.
	Logistic bool
	// Dropout probability on hidden layers. nil selects the paper's 0.1
	// when hidden layers exist; Float(0) disables dropout explicitly.
	Dropout *float64
	// Ensemble is the number of boosted models e (default 1).
	Ensemble int
	// Hierarchy, when non-empty, trains a recursive partition with the
	// given per-level branching factors (e.g. [16, 16] for 256 bins).
	// Mutually exclusive with Ensemble > 1.
	Hierarchy []int
	// Seed makes the build reproducible.
	Seed int64
	// CompactAfter is the number of pending mutations (inserts plus
	// deletes since the last compaction) that triggers a background
	// compaction (default 1024). Negative disables automatic compaction;
	// Compact can still be invoked manually.
	CompactAfter int
	// Quantize configures the optional product-quantized (ADC) serving
	// path; the zero value leaves the index float-only.
	Quantize Quantization
	// Logf receives progress lines when set. Build trains independent
	// models side by side, so it may be called from several goroutines at
	// once.
	Logf func(format string, args ...any)
}

// Quantization configures the ADC candidate-scan path: PQ codebooks are
// trained at build time (and retrained on compaction as the dataset
// grows), every row is stored as a Subspaces-byte code alongside the float
// rows, and queries scan candidates from the codes via a per-query lookup
// table, exactly re-ranking only the top SearchOptions.RerankK survivors.
type Quantization struct {
	// Enabled turns the quantized scan on.
	Enabled bool
	// Subspaces is the number of PQ blocks M — also the bytes per stored
	// code. It must divide the vector dimension. Default: the largest of
	// 64, 32, 16, 8, 4, 2, 1 that divides the dimension (128-d → 64,
	// an 8× compression of the float payload).
	Subspaces int
	// K is the per-subspace codebook size (≤ 256; default 256).
	K int
	// Iters of Lloyd refinement per subspace (default 15).
	Iters int
	// TrainSample caps the rows sampled for codebook training (default
	// 100000; 0 uses the default, negative trains on everything).
	TrainSample int
	// RetrainGrowth triggers codebook retraining during compaction when
	// the row count has grown by this fraction since the last training
	// (default 0.25; negative disables retraining).
	RetrainGrowth float64
	// MemoryTight drops the float rows (and norm cache) once codes are
	// built, shrinking memory to ~Subspaces bytes/vector. Queries then
	// serve pure-ADC results (no exact re-rank), and Add/Save become
	// unavailable — see Index.DropFloats.
	MemoryTight bool
}

func (q Quantization) withDefaults(dim int) Quantization {
	if !q.Enabled {
		return q
	}
	if q.Subspaces == 0 {
		for _, m := range []int{64, 32, 16, 8, 4, 2, 1} {
			if dim%m == 0 {
				q.Subspaces = m
				break
			}
		}
	}
	if q.K == 0 {
		q.K = 256
	}
	if q.Iters == 0 {
		q.Iters = 15
	}
	if q.TrainSample == 0 {
		q.TrainSample = 100000
	}
	if q.RetrainGrowth == 0 {
		q.RetrainGrowth = 0.25
	}
	return q
}

// Float returns a pointer to v — the way to set the optional float fields
// of Options (Eta, Dropout), including their meaningful zero values.
func Float(v float64) *float64 { return &v }

// withDefaults resolves unset fields. Optional floats use nil (not the zero
// value) as the "unset" sentinel so explicit zeros survive: Eta: Float(0)
// and Dropout: Float(0) are honored, not rewritten to the defaults.
func (o Options) withDefaults() Options {
	if o.Bins == 0 {
		o.Bins = 16
	}
	if o.KPrime == 0 {
		o.KPrime = 10
	}
	if o.Eta == nil {
		o.Eta = Float(10)
	}
	if o.Epochs == 0 {
		o.Epochs = 60
	}
	if o.Hidden == nil && !o.Logistic {
		o.Hidden = []int{128}
	}
	if o.Logistic {
		o.Hidden = nil
	}
	if o.Dropout == nil {
		if len(o.Hidden) > 0 {
			o.Dropout = Float(0.1)
		} else {
			o.Dropout = Float(0)
		}
	}
	if o.Ensemble == 0 {
		o.Ensemble = 1
	}
	if o.CompactAfter == 0 {
		o.CompactAfter = 1024
	}
	return o
}

// coreConfig translates resolved Options into a training config.
func (o Options) coreConfig() core.Config {
	return core.Config{
		Bins:      o.Bins,
		KPrime:    o.KPrime,
		Eta:       *o.Eta,
		Epochs:    o.Epochs,
		BatchSize: o.BatchSize,
		Hidden:    o.Hidden,
		Dropout:   *o.Dropout,
		Seed:      o.Seed,
		Logf:      o.Logf,
	}
}

// Result is one returned neighbor.
type Result struct {
	ID       int
	Distance float32 // squared Euclidean distance
}

// BuildStats summarizes the offline phase.
type BuildStats struct {
	// Bins is the total number of partition cells.
	Bins int
	// Models is the number of trained models (ensemble members or
	// hierarchy nodes).
	Models int
	// Params is the total learnable parameter count (Table 2's metric).
	Params int
}

// SearchOptions configures a query.
type SearchOptions struct {
	// Probes is m′, the number of most-probable bins scanned (default 1).
	Probes int
	// RerankK controls the quantized two-phase scan (ignored on
	// float-only indexes): the ADC pass keeps the RerankK best candidates
	// by approximate distance, and only those are exactly re-ranked from
	// the float rows. 0 defaults to 4·k (clamped up to k); negative skips
	// re-ranking entirely and returns pure-ADC results — the only mode
	// available once float rows are dropped (memory-tight).
	RerankK int
}

// Index is a built USP index over a dataset.
//
// Concurrency: queries (Search, SearchBatch, CandidateSet, Searcher entry
// points) are lock-free — each resolves the atomically published epoch,
// an immutable snapshot of the dataset view, lookup tables and tombstones —
// so they may run concurrently with each
// other, with Add/Delete, and with compaction, and each query observes one
// consistent point-in-time state. Mutators serialize behind a short writer
// lock that never blocks readers; the heavy parts of Add (model routing)
// and Compact (table merging) run outside it.
type Index struct {
	dim   int
	opt   Options // resolved by withDefaults; retained for Save
	stats BuildStats

	// live is the epoch all reads resolve. Writers publish a successor
	// with an atomic store; readers load it once per query.
	live atomic.Pointer[epoch]

	// wmu serializes mutators: id assignment, dataset growth, bin appends,
	// tombstone derivation, and epoch publication.
	wmu  sync.Mutex
	data *dataset.Dataset // canonical growing storage (writer-owned)
	// Quantization state (writer-owned, guarded by wmu; epochs publish
	// length-capped views). pq is nil on float-only indexes; codes is the
	// flat row-major code buffer growing in lockstep with data; qtight
	// records that the float rows were dropped (memory-tight mode);
	// qTrainedN is the row count when codebooks were last trained, read
	// by the compaction retrain heuristic.
	pq         *quant.PQ
	codes      []uint8
	qtight     bool
	qTrainedN  int
	pendingOps atomic.Int64 // inserts+deletes since last compaction

	// compactMu serializes compactions; compactQueued collapses redundant
	// background triggers while one is already pending.
	compactMu     sync.Mutex
	compactQueued atomic.Bool

	// searchers pools query contexts for the convenience entry points
	// (Search, SearchBatch, CandidateSet) so they stay allocation-lean
	// without the caller managing Searchers explicitly.
	searchers sync.Pool

	// tel is the per-index telemetry surface (metrics.go); publishedAt is
	// the UnixNano timestamp of the live epoch's publication, feeding the
	// epoch-age gauge and /healthz.
	tel         *indexMetrics
	publishedAt atomic.Int64

	// idOffset is the global id of local row 0 — set by Shard on the split
	// indexes (and restored from their snapshots) so a fan-out front can map
	// shard-local result ids back to the parent's id space. Immutable after
	// construction.
	idOffset int
}

// Build trains a USP index over the given vectors (all of equal length).
// Options no build can satisfy are an ErrInvalid error before any training
// starts. With Quantize enabled, the router and the PQ codebooks train
// concurrently: neither reads the other.
func Build(vectors [][]float32, opt Options) (*Index, error) {
	if err := validateCorpus(vectors); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	opt.Quantize = opt.Quantize.withDefaults(len(vectors[0]))
	if err := opt.validate(len(vectors), len(vectors[0])); err != nil {
		return nil, err
	}
	ds := dataset.FromRowsCopy(vectors)
	// Cache per-row squared norms so the candidate scan can use the fused
	// distance kernel; Append keeps the cache extended for Add.
	ds.EnsureSqNorms(false)

	var (
		router     *core.Ensemble
		bs         BuildStats
		pq         *quant.PQ
		codes      []uint8
		rErr, qErr error
	)
	jobs := []func(){func() { router, bs, rErr = trainRouter(ds, opt) }}
	if opt.Quantize.Enabled {
		jobs = append(jobs, func() { pq, codes, qErr = trainQuantizer(ds, opt.Quantize, opt.Seed, opt.Logf) })
	}
	par.Do(jobs...)
	if err := errors.Join(rErr, qErr); err != nil {
		return nil, fmt.Errorf("usp: %w", err)
	}
	ix := newIndex(ds, router, opt, bs, 0, nil, nil, pq, codes)
	if opt.Quantize.MemoryTight {
		if err := ix.DropFloats(); err != nil {
			return nil, fmt.Errorf("usp: %w", err)
		}
	}
	return ix, nil
}

// trainRouter trains the hierarchy or the ensemble opt asks for on ds. A
// hierarchy serves as an ensemble of one tree.
func trainRouter(ds *dataset.Dataset, opt Options) (*core.Ensemble, BuildStats, error) {
	cfg := opt.coreConfig()
	if len(opt.Hierarchy) > 0 {
		h, stats, err := core.TrainHierarchy(ds, opt.Hierarchy, cfg)
		if err != nil {
			return nil, BuildStats{}, err
		}
		return core.OneTree(h), BuildStats{Bins: h.M, Models: len(stats), Params: h.TotalParams()}, nil
	}
	if cfg.KPrime >= ds.N {
		cfg.KPrime = ds.N - 1
	}
	mat := knn.BuildMatrix(ds, cfg.KPrime)
	e, stats, err := core.TrainEnsemble(ds, mat, cfg, opt.Ensemble)
	if err != nil {
		return nil, BuildStats{}, err
	}
	return e, BuildStats{Bins: opt.Bins, Models: e.Size(), Params: stats.TotalParams()}, nil
}

// validate returns an ErrInvalid error naming the first of the resolved
// options that no build over n vectors of width dim can satisfy. Build runs
// it before training anything.
func (o Options) validate(n, dim int) error {
	if n < 4 {
		return fmt.Errorf("%w: need at least 4 vectors, have %d", ErrInvalid, n)
	}
	if err := o.validateTraining(); err != nil {
		return err
	}
	if len(o.Hierarchy) > 0 {
		if o.Ensemble > 1 {
			return fmt.Errorf("%w: Hierarchy and Ensemble > 1 are mutually exclusive", ErrInvalid)
		}
		for _, m := range o.Hierarchy {
			if m < 2 {
				return fmt.Errorf("%w: Hierarchy branching factors must be ≥ 2, got %v", ErrInvalid, o.Hierarchy)
			}
		}
	} else if o.Bins < 2 || o.Bins > n {
		return fmt.Errorf("%w: Bins=%d outside [2, %d vectors]", ErrInvalid, o.Bins, n)
	}
	if o.Ensemble < 1 {
		return fmt.Errorf("%w: Ensemble must be ≥ 1, got %d", ErrInvalid, o.Ensemble)
	}
	if q := o.Quantize; q.Enabled {
		if q.Subspaces < 1 || dim%q.Subspaces != 0 {
			return fmt.Errorf("%w: Quantize.Subspaces=%d does not divide dim %d", ErrInvalid, q.Subspaces, dim)
		}
		if q.K < 1 || q.K > 256 {
			return fmt.Errorf("%w: Quantize.K=%d outside [1, 256]", ErrInvalid, q.K)
		}
		if q.Iters < 0 {
			return fmt.Errorf("%w: Quantize.Iters must be ≥ 0, got %d", ErrInvalid, q.Iters)
		}
	}
	return nil
}

// validateTraining checks the resolved options every model's training
// reads, for Build and Cluster alike.
func (o Options) validateTraining() error {
	switch {
	case o.Epochs < 1:
		return fmt.Errorf("%w: Epochs must be ≥ 1, got %d", ErrInvalid, o.Epochs)
	case o.KPrime < 1:
		return fmt.Errorf("%w: KPrime must be ≥ 1, got %d", ErrInvalid, o.KPrime)
	case o.BatchSize < 0:
		return fmt.Errorf("%w: BatchSize must be ≥ 0, got %d", ErrInvalid, o.BatchSize)
	case !(*o.Eta >= 0):
		return fmt.Errorf("%w: Eta must be ≥ 0, got %g", ErrInvalid, *o.Eta)
	case !(*o.Dropout >= 0 && *o.Dropout < 1):
		return fmt.Errorf("%w: Dropout must be in [0, 1), got %g", ErrInvalid, *o.Dropout)
	}
	for _, w := range o.Hidden {
		if w < 1 {
			return fmt.Errorf("%w: Hidden widths must be ≥ 1, got %v", ErrInvalid, o.Hidden)
		}
	}
	return nil
}

// trainQuantizer fits PQ codebooks on (a sample of) ds and encodes every
// row. Training sees at most q.TrainSample rows (a seeded uniform sample —
// codebook quality saturates long before millions of rows) but encoding
// always covers the full dataset.
func trainQuantizer(ds *dataset.Dataset, q Quantization, seed int64, logf func(string, ...any)) (*quant.PQ, []uint8, error) {
	cfg := quant.Config{Subspaces: q.Subspaces, K: q.K, Iters: q.Iters, Seed: seed + 101}
	if q.K > ds.N {
		cfg.K = ds.N // tiny indexes: one centroid per row still works
	}
	sample := ds
	if q.TrainSample > 0 && ds.N > q.TrainSample {
		rng := rand.New(rand.NewSource(seed + 103))
		idx := rng.Perm(ds.N)[:q.TrainSample]
		sample = ds.Subset(idx)
	}
	if logf != nil {
		logf("usp: training PQ codebooks (M=%d K=%d on %d rows)", cfg.Subspaces, cfg.K, sample.N)
	}
	pq, err := quant.Train(sample, cfg)
	if err != nil {
		return nil, nil, err
	}
	codes, err := pq.EncodeInto(nil, ds)
	if err != nil {
		return nil, nil, err
	}
	return pq, codes, nil
}

// Stats reports offline-phase metrics.
func (ix *Index) Stats() BuildStats { return ix.stats }

// Len returns the number of live (non-deleted) vectors. Lock-free; safe to
// call concurrently with any mutation.
func (ix *Index) Len() int {
	ep := ix.live.Load()
	return ep.data.N - ep.dead() - ep.tombs.Count()
}

// Dim returns the vector dimensionality.
func (ix *Index) Dim() int { return ix.dim }

// CandidateSet returns the ids the index would scan for q (Algorithm 2,
// step 2) — exposed so callers can hand candidates to their own scorer
// (e.g. a ScaNN pipeline, as in §5.4.3). It is a thin wrapper over the
// batched engine's candidate gathering, using a pooled Searcher; deleted
// ids are filtered out.
func (ix *Index) CandidateSet(q []float32, opt SearchOptions) ([]int, error) {
	if len(q) != ix.dim {
		return nil, fmt.Errorf("%w: query dim %d, index dim %d", ErrInvalid, len(q), ix.dim)
	}
	if err := ValidateVector(q); err != nil {
		return nil, err
	}
	s := ix.getSearcher()
	defer ix.putSearcher(s)
	ep := ix.live.Load()
	p := ix.plan(ep, 1, opt)
	s.route(ep, [][]float32{q}, p.probes)
	s.gather(ep, 0, p.probes)
	out := make([]int, 0, len(s.cands))
	for _, id := range s.cands {
		if !ep.tombs.Has(int(id)) {
			out = append(out, int(id))
		}
	}
	return out, nil
}

// Search returns the k approximate nearest neighbors of q. It is a thin
// wrapper over a pooled Searcher; callers issuing many queries from one
// goroutine should hold their own (NewSearcher) and use SearchInto, and
// callers with many queries in hand should prefer SearchBatch.
func (ix *Index) Search(q []float32, k int, opt SearchOptions) ([]Result, error) {
	s := ix.getSearcher()
	defer ix.putSearcher(s)
	return s.Search(q, k, opt)
}

// Cluster trains a single USP model with k bins and returns a cluster label
// per vector — the paper's use of the partitioner as an unsupervised
// clustering method (§5.5).
func Cluster(vectors [][]float32, k int, opt Options) ([]int, error) {
	if err := validateCorpus(vectors); err != nil {
		return nil, err
	}
	if k < 2 || k > len(vectors) {
		return nil, fmt.Errorf("%w: %d vectors cannot form %d clusters", ErrInvalid, len(vectors), k)
	}
	opt = opt.withDefaults()
	if err := opt.validateTraining(); err != nil {
		return nil, err
	}
	ds := dataset.FromRowsCopy(vectors)
	cfg := opt.coreConfig()
	cfg.Bins = 0 // ClusterLabels sets Bins = k
	return core.ClusterLabels(ds, k, cfg)
}
