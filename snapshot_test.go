package usp

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/vecmath"
)

// churn applies adds and deletes so an index carries live spill lists and
// tombstones — the states a snapshot must capture faithfully.
func churn(t testing.TB, ix *Index, vecs [][]float32, adds, deletes int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < adds; i++ {
		nv := append([]float32(nil), vecs[rng.Intn(len(vecs))]...)
		nv[0] += float32(rng.NormFloat64()) * 0.02
		if _, err := ix.Add(nv); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < deletes; {
		if err := ix.Delete(rng.Intn(len(vecs) + adds)); err == nil {
			i++
		}
	}
}

// requireIdentical asserts two indexes answer a query set bit-identically:
// same ids, same order, same float bits, across probe configurations.
func requireIdentical(t *testing.T, a, b *Index, queries [][]float32, label string) {
	t.Helper()
	for _, opt := range []SearchOptions{
		{Probes: 1},
		{Probes: 2},
	} {
		for qi, q := range queries {
			ra, err := a.Search(q, 10, opt)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := b.Search(q, 10, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(ra) != len(rb) {
				t.Fatalf("%s %v q%d: %d vs %d results", label, opt, qi, len(ra), len(rb))
			}
			for i := range ra {
				if ra[i] != rb[i] {
					t.Fatalf("%s %v q%d result %d: %+v vs %+v", label, opt, qi, i, ra[i], rb[i])
				}
			}
		}
	}
}

// TestSnapshotRoundTripServesIdentically is the acceptance test for the
// snapshot format: save → load must serve bit-identical results, including
// from an index carrying post-Insert spill lists and tombstones, for both
// ensemble and hierarchy architectures.
func TestSnapshotRoundTripServesIdentically(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"ensemble", Options{Bins: 4, Ensemble: 2, Epochs: 25, Hidden: []int{16}, Seed: 7, CompactAfter: -1}},
		{"hierarchy", Options{Hierarchy: []int{2, 2}, Epochs: 15, Hidden: []int{8}, Seed: 7, CompactAfter: -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vecs, _ := clusteredVectors(103, 500, 8, 4)
			ix, err := Build(vecs, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			churn(t, ix, vecs, 90, 60, 104)

			var buf bytes.Buffer
			if err := ix.Save(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}

			if loaded.Len() != ix.Len() || loaded.Dim() != ix.Dim() {
				t.Fatalf("Len/Dim mismatch: %d/%d vs %d/%d",
					loaded.Len(), loaded.Dim(), ix.Len(), ix.Dim())
			}
			if loaded.Stats() != ix.Stats() {
				t.Fatalf("stats mismatch: %+v vs %+v", loaded.Stats(), ix.Stats())
			}
			requireIdentical(t, ix, loaded, vecs[:60], "live-vs-loaded")

			// The loaded index is fully live: it accepts further churn, a
			// compaction, and a second snapshot generation.
			churn(t, loaded, vecs, 20, 10, 105)
			loaded.Compact()
			var buf2 bytes.Buffer
			if err := loaded.Save(&buf2); err != nil {
				t.Fatal(err)
			}
			second, err := Load(bytes.NewReader(buf2.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, loaded, second, vecs[:30], "second-generation")
		})
	}
}

// TestSnapshotCompactionCommutes pins the merge-order contract: saving a
// churned index and saving its compacted self produce indexes that serve
// identically (compaction never reorders surviving candidates).
func TestSnapshotCompactionCommutes(t *testing.T) {
	vecs, _ := clusteredVectors(107, 500, 8, 4)
	ix, err := Build(vecs, Options{Bins: 4, Ensemble: 2, Epochs: 25, Hidden: []int{16}, Seed: 9, CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	churn(t, ix, vecs, 70, 40, 108)

	var pre bytes.Buffer
	if err := ix.Save(&pre); err != nil {
		t.Fatal(err)
	}
	ix.Compact()
	var post bytes.Buffer
	if err := ix.Save(&post); err != nil {
		t.Fatal(err)
	}
	a, err := Load(bytes.NewReader(pre.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Load(bytes.NewReader(post.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, a, b, vecs[:50], "precompact-vs-postcompact")
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	vecs, _ := clusteredVectors(109, 400, 8, 4)
	ix, err := Build(vecs, Options{Bins: 4, Epochs: 20, Hidden: []int{16}, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.usps")
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, ix, loaded, vecs[:40], "file")
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a snapshot at all"))); err == nil {
		t.Fatal("garbage must not load")
	}
	// Truncation anywhere must error, not panic or hang.
	vecs, _ := clusteredVectors(113, 200, 4, 2)
	ix, err := Build(vecs, Options{Bins: 2, Epochs: 5, Logistic: true, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{4, 15, 40, len(full) / 2, len(full) - 3} {
		if _, err := Load(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncated snapshot (%d of %d bytes) loaded", cut, len(full))
		}
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing")); !os.IsNotExist(err) {
		t.Fatalf("missing file: err = %v, want a not-exist error", err)
	}
	// A file of any other format — here the header of the retired
	// model-only format — fails to load with an error that says so.
	other := filepath.Join(t.TempDir(), "legacy.usp")
	if err := os.WriteFile(other, []byte("usp-index:ensemble\n\x00\x01\x02 model bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(other); err == nil || !strings.Contains(err.Error(), "not a snapshot file") {
		t.Fatalf("non-snapshot file: err = %v, want a not-a-snapshot error", err)
	}
}

// TestLoadRecomputesNormCache: Save no longer writes the norm section, and
// the copy older files carry is derived data with no checksum, so Load must
// not serve from it. With a norm section of corrupted norms injected where
// older writers put it, the loaded index still answers exactly like the
// index that was saved, and a stored row is still at distance exactly 0 from
// itself.
func TestLoadRecomputesNormCache(t *testing.T) {
	vecs, _ := clusteredVectors(127, 600, 8, 4)
	ix, err := Build(vecs, Options{Bins: 4, Epochs: 10, Hidden: []int{8}, Seed: 17, CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	secs := splitSections(buf.Bytes())
	at := slices.IndexFunc(secs, func(s section) bool { return s.id == secDataset })
	if at < 0 || slices.ContainsFunc(secs, func(s section) bool { return s.id == secSqNorms }) {
		t.Fatal("saved file lacks a dataset section or still carries a norm section")
	}
	norms := binary.LittleEndian.AppendUint64(nil, uint64(len(vecs)))
	for _, v := range vecs {
		norms = binary.LittleEndian.AppendUint32(norms, math.Float32bits(vecmath.Dot(v, v))^0x5a5a5a5a)
	}
	file := joinSections(slices.Insert(secs, at+1, section{secSqNorms, norms}))
	loaded, err := Load(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, ix, loaded, vecs[:200], "corrupted norms")
	for _, id := range []int{0, 7, 599} {
		res, err := loaded.Search(vecs[id], 1, SearchOptions{Probes: 4})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || res[0].Distance != 0 {
			t.Fatalf("self query %d on the loaded index: %+v, want distance exactly 0", id, res)
		}
	}
}

// TestSnapshotRestoresLifecycleState is the regression test for dead-id
// accounting across save/load: an id compacted away before the save must
// still be rejected by Delete on the loaded index, the epoch sequence
// number must survive, and Len/Dead must not drift through a further
// compaction cycle.
func TestSnapshotRestoresLifecycleState(t *testing.T) {
	vecs, _ := clusteredVectors(137, 300, 6, 3)
	ix, err := Build(vecs, Options{Bins: 3, Epochs: 10, Hidden: []int{8}, Seed: 23, CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(5); err != nil {
		t.Fatal(err)
	}
	ix.Compact() // id 5 leaves the tables: tombstone folded into the dead set
	if err := ix.Delete(9); err != nil {
		t.Fatal(err) // a live tombstone travels alongside the dead set
	}
	want := ix.Lifecycle()
	if want.Dead != 1 || want.Tombstones != 1 {
		t.Fatalf("precondition lifecycle %+v", want)
	}

	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Lifecycle(); got != want {
		t.Fatalf("lifecycle not restored: %+v, want %+v", got, want)
	}
	if err := loaded.Delete(5); err == nil {
		t.Fatal("compacted-dead id re-deleted after load")
	}
	if err := loaded.Delete(9); err == nil {
		t.Fatal("tombstoned id re-deleted after load")
	}
	if loaded.Len() != 298 {
		t.Fatalf("Len = %d, want 298", loaded.Len())
	}
	loaded.Compact()
	if got := loaded.Lifecycle(); got.Dead != 2 || got.Tombstones != 0 || loaded.Len() != 298 {
		t.Fatalf("post-load compaction drifted: %+v, Len %d", got, loaded.Len())
	}
}

// TestSaveDuringConcurrentMutation exercises snapshot isolation of Save:
// a save racing adds/deletes must produce a loadable, internally
// consistent snapshot (some prefix of the mutation stream).
func TestSaveDuringConcurrentMutation(t *testing.T) {
	vecs, _ := clusteredVectors(127, 500, 8, 4)
	ix, err := Build(vecs, Options{Bins: 4, Epochs: 20, Hidden: []int{16}, Seed: 17, CompactAfter: 48})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		rng := rand.New(rand.NewSource(128))
		for i := 0; ; i++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if i%3 == 0 {
				if err := ix.Delete(rng.Intn(500)); err != nil {
					continue // duplicate delete is fine here
				}
			} else {
				nv := append([]float32(nil), vecs[rng.Intn(len(vecs))]...)
				nv[0] += 0.01
				if _, err := ix.Add(nv); err != nil {
					done <- err
					return
				}
			}
		}
	}()
	for i := 0; i < 5; i++ {
		var buf bytes.Buffer
		if err := ix.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		lc := loaded.Lifecycle()
		if lc.Live != loaded.Len() || lc.Rows < 500 {
			t.Fatalf("inconsistent loaded lifecycle %+v", lc)
		}
		if _, err := loaded.Search(vecs[0], 5, SearchOptions{Probes: 2}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// legacyFixture is a snapshot written by an earlier version of this
// package (testdata/legacy/README.md) with the answers that version gave
// after loading it, per kernel set: distances differ in their last bits
// between kernel sets, so each set is held to its own.
type legacyFixture struct {
	K       int                     `json:"k"`
	Options []SearchOptions         `json:"options"`
	Queries [][]float32             `json:"queries"`
	Answers map[string][][][]Result `json:"answers"`
}

// TestLegacySnapshotsLoad: snapshots written before tables were one packed
// form — an ensemble saved with pending inserts and tombstones, and a [4,4]
// hierarchy whose node tables the file still carries — load and answer
// bit-identically to the version that wrote them.
func TestLegacySnapshotsLoad(t *testing.T) {
	for _, tc := range []struct {
		name       string
		tombstones int
	}{{"ensemble", 20}, {"hierarchy", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			ix, err := LoadFile(filepath.Join("testdata", "legacy", tc.name+".usps"))
			if err != nil {
				t.Fatal(err)
			}
			if lc := ix.Lifecycle(); lc.PendingInserts != 0 || lc.Tombstones != tc.tombstones {
				t.Fatalf("lifecycle %+v", lc)
			}
			raw, err := os.ReadFile(filepath.Join("testdata", "legacy", tc.name+".answers.json"))
			if err != nil {
				t.Fatal(err)
			}
			var f legacyFixture
			if err := json.Unmarshal(raw, &f); err != nil {
				t.Fatal(err)
			}
			want, ok := f.Answers[vecmath.Impl()]
			if !ok {
				t.Skipf("no answers recorded for the %s kernels", vecmath.Impl())
			}
			for oi, opt := range f.Options {
				for qi, q := range f.Queries {
					got, err := ix.Search(q, f.K, opt)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, want[oi][qi]) {
						t.Fatalf("%+v q%d: %v, recorded %v", opt, qi, got, want[oi][qi])
					}
				}
			}
		})
	}
}

// The model section's gob payload, mirrored field by field so a test can
// write a file the package's own saver never would.
type (
	filePart struct {
		Model []byte
		M     int
		Bins  [][]int32
	}
	fileEnsemble struct{ Parts []filePart }
	fileNode     struct {
		Model    []byte
		LeafBase int
		Children []fileNode
	}
	fileHierarchy struct {
		NumBins int
		Bins    [][]int32
		Root    fileNode
	}
)

// section is one entry of a snapshot's section table with its payload.
type section struct {
	id      uint32
	payload []byte
}

// splitSections returns file's sections in table order.
func splitSections(file []byte) []section {
	var out []section
	for i := 0; i < int(binary.LittleEndian.Uint32(file[12:16])); i++ {
		e := file[snapHeaderFixed+i*snapSectionEntry:]
		off, n := binary.LittleEndian.Uint64(e[8:16]), binary.LittleEndian.Uint64(e[16:24])
		out = append(out, section{binary.LittleEndian.Uint32(e[0:4]), file[off : off+n]})
	}
	return out
}

// joinSections lays secs out as a snapshot file: the header, a section
// table in the order given, and the payloads back to back.
func joinSections(secs []section) []byte {
	out := append([]byte(snapMagic), make([]byte, 8+snapSectionEntry*len(secs))...)
	binary.LittleEndian.PutUint32(out[8:], snapVersion)
	binary.LittleEndian.PutUint32(out[12:], uint32(len(secs)))
	for i, s := range secs {
		e := out[snapHeaderFixed+i*snapSectionEntry:]
		binary.LittleEndian.PutUint32(e[0:4], s.id)
		binary.LittleEndian.PutUint64(e[8:16], uint64(len(out)))
		binary.LittleEndian.PutUint64(e[16:24], uint64(len(s.payload)))
		out = append(out, s.payload...)
	}
	return out
}

// rewriteModel returns file with its model section's gob payload (after the
// kind byte) decoded into spec, passed through edit, and encoded back, every
// later section moved to fit.
func rewriteModel[S any](t *testing.T, file []byte, edit func(*S)) []byte {
	t.Helper()
	secs := splitSections(file)
	for i, s := range secs {
		if s.id != secModel {
			continue
		}
		var spec S
		if err := gob.NewDecoder(bytes.NewReader(s.payload[1:])).Decode(&spec); err != nil {
			t.Fatal(err)
		}
		edit(&spec)
		var buf bytes.Buffer
		buf.WriteByte(s.payload[0])
		if err := gob.NewEncoder(&buf).Encode(spec); err != nil {
			t.Fatal(err)
		}
		secs[i].payload = buf.Bytes()
	}
	return joinSections(secs)
}

// rewriteOptions returns file with its options section decoded, passed
// through edit, and encoded back, every later section moved to fit.
func rewriteOptions(t *testing.T, file []byte, edit func(*snapOptions)) []byte {
	t.Helper()
	secs := splitSections(file)
	for i, s := range secs {
		if s.id != secOptions {
			continue
		}
		var so snapOptions
		if err := gob.NewDecoder(bytes.NewReader(s.payload)).Decode(&so); err != nil {
			t.Fatal(err)
		}
		edit(&so)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(so); err != nil {
			t.Fatal(err)
		}
		secs[i].payload = buf.Bytes()
	}
	return joinSections(secs)
}

// TestLoadRejectsMismatchedTables: a snapshot whose tables address rows the
// dataset lacks, or whose tables and models disagree in shape, used to load
// and then panic in the first query that probed the bad bin — on a batch
// worker or the server's batcher, which nothing recovers. Load must refuse
// it instead, and a well-formed rewrite must still load.
func TestLoadRejectsMismatchedTables(t *testing.T) {
	vecs, _ := clusteredVectors(157, 300, 8, 4)
	save := func(opts Options) []byte {
		ix, err := Build(vecs, opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ix.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ens := save(Options{Bins: 4, Ensemble: 2, Epochs: 5, Hidden: []int{8}, Seed: 158})
	hier := save(Options{Hierarchy: []int{2, 2}, Epochs: 5, Hidden: []int{8}, Seed: 158})
	var wide bytes.Buffer // a model for 9-dim rows with the ensemble's 4 outputs
	if err := nn.NewLogistic(9, 4, rand.New(rand.NewSource(159))).Save(&wide); err != nil {
		t.Fatal(err)
	}

	for _, file := range [][]byte{
		rewriteModel(t, ens, func(*fileEnsemble) {}),
		rewriteModel(t, hier, func(*fileHierarchy) {}),
		rewriteOptions(t, hier, func(*snapOptions) {}),
	} {
		if _, err := Load(bytes.NewReader(file)); err != nil {
			t.Fatalf("unchanged rewrite: %v", err)
		}
	}
	for name, file := range map[string][]byte{
		"ensemble/id past the rows": rewriteModel(t, ens, func(s *fileEnsemble) {
			s.Parts[1].Bins[2] = append(s.Parts[1].Bins[2], 300)
		}),
		"ensemble/table narrower than its model": rewriteModel(t, ens, func(s *fileEnsemble) {
			s.Parts[0].Bins = s.Parts[0].Bins[:3]
		}),
		"ensemble/model of another row width": rewriteModel(t, ens, func(s *fileEnsemble) {
			s.Parts[1].Model = wide.Bytes()
		}),
		"hierarchy/id past the rows": rewriteModel(t, hier, func(s *fileHierarchy) {
			s.Bins[3] = append(s.Bins[3], 1<<20)
		}),
		"hierarchy/leaf base past NumBins": rewriteModel(t, hier, func(s *fileHierarchy) {
			s.Root.Children[1].LeafBase = 3
		}),
		"hierarchy/NumBins below the leaves": rewriteModel(t, hier, func(s *fileHierarchy) {
			s.NumBins, s.Bins = 3, s.Bins[:3]
		}),
		// Save picks the model spec from the options, so a file whose two
		// disagree would not be written back as it was read.
		"hierarchy spec under ensemble options": rewriteOptions(t, hier, func(so *snapOptions) {
			so.Hierarchy = nil
		}),
		"ensemble spec under hierarchy options": rewriteOptions(t, ens, func(so *snapOptions) {
			so.Hierarchy, so.Ensemble = []int{2, 2}, 1
		}),
	} {
		if _, err := Load(bytes.NewReader(file)); err == nil {
			t.Fatalf("%s: loaded", name)
		}
	}
}

// TestLoadRejectsOversizedSections: a section's header declares how much it
// holds, and Load used to allocate that much before reading any of it — a
// 56-byte file claiming 2^28 rows of 128 floats, or a 48-byte one claiming
// 2^34 tombstone words, ended the process out of memory, which nothing
// recovers. Each is an error now, and so are a quant section claiming 2^40
// rows of codes and a section table claiming more bytes than the file holds.
func TestLoadRejectsOversizedSections(t *testing.T) {
	vecs, _ := clusteredVectors(163, 300, 8, 4)
	ix, err := Build(vecs, Options{Bins: 4, Epochs: 5, Hidden: []int{8}, Seed: 164,
		Quantize: Quantization{Enabled: true, Subspaces: 4, K: 16}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	quantRows := splitSections(buf.Bytes())
	for i, s := range quantRows {
		if s.id == secQuant {
			p := slices.Clone(s.payload)
			binary.LittleEndian.PutUint64(p[16:24], 1<<40) // the header's row count
			quantRows[i].payload = p
		}
	}
	rows := binary.LittleEndian.AppendUint64(nil, 1<<28)
	rows = binary.LittleEndian.AppendUint32(rows, 128)
	rows = binary.LittleEndian.AppendUint32(rows, 0)
	pastEnd := joinSections([]section{{secDataset, rows}})
	binary.LittleEndian.PutUint64(pastEnd[snapHeaderFixed+16:], 1<<40) // the table's section length

	for name, file := range map[string][]byte{
		"dataset rows":    joinSections([]section{{secDataset, rows}}),
		"tombstone words": joinSections([]section{{secTombstones, binary.LittleEndian.AppendUint64(nil, 1<<34)}}),
		"quant codes":     joinSections(quantRows),
		"past the end":    pastEnd,
	} {
		if _, err := Load(bytes.NewReader(file)); err == nil {
			t.Fatalf("%s: %d-byte file loaded", name, len(file))
		}
	}
}

// TestLoadRejectsNonFiniteRows: the dataset section is untrusted bytes like
// every other. A row holding NaN or ±Inf, or one whose squared norm
// overflows, is one Add would refuse; Load used to serve it. It is an
// ErrInvalid error now, and the unpatched file still loads.
func TestLoadRejectsNonFiniteRows(t *testing.T) {
	vecs, _ := clusteredVectors(163, 200, 8, 4)
	ix, err := Build(vecs, Options{Bins: 4, Epochs: 5, Hidden: []int{8}, Seed: 164})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("unpatched file: %v", err)
	}
	patch := func(row int, vals ...float32) []byte {
		secs := splitSections(buf.Bytes())
		for i, s := range secs {
			if s.id != secDataset {
				continue
			}
			p := append([]byte(nil), s.payload...)
			for j, v := range vals {
				binary.LittleEndian.PutUint32(p[16+4*(row*8+j):], math.Float32bits(v))
			}
			secs[i].payload = p
		}
		return joinSections(secs)
	}
	for name, file := range map[string][]byte{
		"NaN":        patch(17, float32(math.NaN())),
		"+Inf":       patch(0, float32(math.Inf(1))),
		"-Inf":       patch(199, 0, 0, 0, 0, 0, 0, 0, float32(math.Inf(-1))),
		"overflow":   patch(42, 1e20, 1e20, 1e20, 1e20, 1e20, 1e20, 1e20, 1e20),
		"single big": patch(3, 3e37),
	} {
		if _, err := Load(bytes.NewReader(file)); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s row: Load error %v, want ErrInvalid", name, err)
		}
	}
}

// TestLoadRejectsNonFiniteModels: a model is untrusted bytes too. A
// snapshot whose root model holds one NaN weight used to load, and most
// queries then answered empty with no error. Saved through Save, such a
// file is an error at Load now, for a tree's root and a flat member alike.
func TestLoadRejectsNonFiniteModels(t *testing.T) {
	vecs, _ := clusteredVectors(167, 300, 8, 4)
	for name, opts := range map[string]Options{
		"hierarchy": {Hierarchy: []int{2, 2}, Epochs: 5, Hidden: []int{8}, Seed: 168},
		"ensemble":  {Bins: 4, Ensemble: 2, Epochs: 5, Hidden: []int{8}, Seed: 168},
	} {
		ix, err := Build(vecs, opts)
		if err != nil {
			t.Fatal(err)
		}
		dense := ix.live.Load().router.Parts[0].Model.Layers[0].(*nn.Dense)
		dense.W.Value.Data[5] = float32(math.NaN())
		var buf bytes.Buffer
		if err := ix.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&buf); err == nil {
			t.Errorf("%s: a snapshot with a NaN root weight loaded", name)
		}
	}
}

// failAfter passes the first n bytes through to w and fails every write
// after them.
type failAfter struct {
	w io.Writer
	n int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) <= f.n {
		f.n -= len(p)
		return f.w.Write(p)
	}
	k, _ := f.w.Write(p[:f.n])
	f.n = 0
	return k, errors.New("injected write failure")
}

// requireOnlyFile asserts that dir holds path alone, with exactly the bytes
// want: a failed save left neither a changed snapshot nor a stray file.
func requireOnlyFile(t *testing.T, dir, path string, want []byte) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s changed: %d bytes, had %d", path, len(got), len(want))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != filepath.Base(path) {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want only %s", names, filepath.Base(path))
	}
}

// TestSaveFileRefusedKeepsOldFile: a save Save refuses — a memory-tight
// index has no float rows to write — leaves the snapshot it would have
// replaced byte-identical.
func TestSaveFileRefusedKeepsOldFile(t *testing.T) {
	_, ix, _ := buildQuantizedPair(t, 131, 300, 16, Quantization{Subspaces: 4, K: 16})
	dir := t.TempDir()
	path := filepath.Join(dir, "index.usps")
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.DropFloats(); err != nil {
		t.Fatal(err)
	}
	if err := ix.SaveFile(path); err == nil {
		t.Fatal("memory-tight SaveFile succeeded")
	}
	requireOnlyFile(t, dir, path, old)
}

// TestSaveFileFailingMidWriteKeepsOldFile: a save whose write fails part-way
// — here after n bytes, for n at every section boundary of the snapshot
// being written — leaves the snapshot it would have replaced byte-identical
// and no temporary file behind.
func TestSaveFileFailingMidWriteKeepsOldFile(t *testing.T) {
	vecs, _ := clusteredVectors(137, 300, 8, 4)
	ix, err := Build(vecs, Options{Bins: 4, Epochs: 5, Hidden: []int{8}, Seed: 138})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "index.usps")
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Add(vecs[1]); err != nil { // the new snapshot differs
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	count := int(binary.LittleEndian.Uint32(full[12:16]))
	cuts := []int{0, len(snapMagic), snapHeaderFixed, snapHeaderFixed + snapSectionEntry*count, len(full) - 1}
	for i := 0; i < count; i++ {
		e := full[snapHeaderFixed+snapSectionEntry*i:]
		cuts = append(cuts, int(binary.LittleEndian.Uint64(e[8:16])))
	}
	for _, n := range cuts {
		err := writeFileAtomic(path, func(w io.Writer) error { return ix.Save(&failAfter{w: w, n: n}) })
		if err == nil {
			t.Fatalf("save failing after %d of %d bytes succeeded", n, len(full))
		}
		requireOnlyFile(t, dir, path, old)
	}
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	requireOnlyFile(t, dir, path, full)
}

// TestSaveFilePermissions: a new snapshot gets the bits os.Create gives a
// new file, and a save over an existing one keeps that file's bits.
func TestSaveFilePermissions(t *testing.T) {
	vecs, _ := clusteredVectors(139, 200, 4, 2)
	ix, err := Build(vecs, Options{Bins: 2, Epochs: 3, Logistic: true, Seed: 140})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref")
	f, err := os.Create(ref)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	path := filepath.Join(dir, "index.usps")
	mode := func(p string) os.FileMode {
		t.Helper()
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Mode()
	}
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if got, want := mode(path), mode(ref); got != want {
		t.Fatalf("new snapshot mode %v, os.Create gives %v", got, want)
	}
	if err := os.Chmod(path, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if got := mode(path); got != 0o600 {
		t.Fatalf("saving over a 0600 snapshot left mode %v", got)
	}
}

// TestEmptySnapshotServesAdds: a snapshot may hold no rows. Load builds the
// norm cache the float scan reads all the same, so a row added afterwards
// is scanned with it, and a self-query finds it at distance exactly 0.
func TestEmptySnapshotServesAdds(t *testing.T) {
	ix, vecs := buildSmallIndex(t, 141, 2)
	ep := ix.live.Load()
	parts := make([]*core.Partitioner, len(ep.router.Parts))
	for m, p := range ep.router.Parts {
		q := *p
		q.Bins = make([][]int32, p.M)
		parts[m] = &q
	}
	empty := newIndex(&dataset.Dataset{Dim: ix.dim}, &core.Ensemble{Parts: parts}, ix.opt, ix.stats, 0, nil, nil, nil, nil)
	var buf bytes.Buffer
	if err := empty.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 0 {
		t.Fatalf("empty snapshot loaded %d rows", loaded.Len())
	}
	id, err := loaded.Add(vecs[0])
	if err != nil {
		t.Fatal(err)
	}
	res, err := loaded.Search(vecs[0], 1, SearchOptions{Probes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != id || res[0].Distance != 0 {
		t.Fatalf("self-query after Add = %+v, want id %d at distance 0", res, id)
	}
}
