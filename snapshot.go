package usp

// The versioned full-index snapshot format. Unlike the legacy model-only
// files of internal/core (which persist models and bin tables but not the
// vectors, so a loaded index cannot serve queries), a snapshot is fully
// self-contained: one file holds everything needed to serve — options,
// models, merged lookup tables, dataset rows and tombstones — and a loaded
// index returns bit-identical results to the live one it was saved from,
// including results involving vectors added since the last compaction or
// already tombstoned at save time.
//
// Layout (all integers little-endian):
//
//	[8]  magic "USPSNAP1"
//	[4]  format version (currently 1)
//	[4]  section count
//	per section: [4] id  [4] reserved  [8] offset  [8] length
//	section payloads, in ascending offset order
//
// Sections: options (gob), model (kind byte + the core gob payload: models
// and every bin's ids in the order the read path scans them), dataset (row
// count, dim, raw float32 rows), tombstones and the compacted dead set
// (bitmap words), and the optional quant section. Id 4 is retired: older
// files carry the norm cache there, which Load skips and recomputes from the
// rows. Readers skip unknown section ids, so the format can grow without a
// version bump; offsets are explicit so future writers may reorder or align
// sections.
//
// Save streams: small sections are staged in memory, but the dataset — the
// dominant payload — is written straight from the epoch's row storage
// through a buffered writer, never copied whole. Save operates on one
// published epoch, so it is safe (and consistent) concurrently with
// queries, Add, Delete, and compaction.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/quant"
)

const (
	snapMagic   = "USPSNAP1"
	snapVersion = 1

	secOptions    = 1
	secModel      = 2
	secDataset    = 3
	secSqNorms    = 4 // retired: no longer written; skipped in older files
	secTombstones = 5
	secDeadSet    = 6
	secQuant      = 7

	modelKindEnsemble  = 1
	modelKindHierarchy = 2

	snapHeaderFixed  = 16 // magic + version + count
	snapSectionEntry = 24 // id + reserved + offset + length
)

// snapOptions is the gob payload of the options section: the resolved
// build options plus the lifecycle state a servable index needs restored.
type snapOptions struct {
	Bins, KPrime, Epochs, BatchSize, Ensemble int
	Eta, Dropout                              float64
	Hidden                                    []int
	Logistic                                  bool
	Hierarchy                                 []int
	Seed                                      int64
	CompactAfter                              int
	Stats                                     BuildStats
	Dead                                      int
	Epoch                                     uint64
	// Quant is the resolved quantization config (zero value — disabled —
	// when decoding snapshots written before the quant section existed).
	Quant Quantization
	// IDOffset is the shard's global id base (see Index.IDOffset); zero for
	// unsharded indexes and for snapshots written before sharding existed.
	IDOffset int
}

// Save writes a self-contained snapshot of the index to w. It snapshots
// one published epoch, so concurrent mutations neither block nor tear it.
func (ix *Index) Save(w io.Writer) error {
	ep := ix.live.Load()
	o := ix.opt
	if ep.quant != nil && ep.quant.tight {
		return fmt.Errorf("usp: cannot snapshot a memory-tight index (float rows were dropped)")
	}

	var optBuf bytes.Buffer
	so := snapOptions{
		Bins: o.Bins, KPrime: o.KPrime, Epochs: o.Epochs, BatchSize: o.BatchSize,
		Ensemble: o.Ensemble, Eta: *o.Eta, Dropout: *o.Dropout, Hidden: o.Hidden,
		Logistic: o.Logistic, Hierarchy: o.Hierarchy, Seed: o.Seed, CompactAfter: o.CompactAfter,
		Stats: ix.stats, Dead: ep.dead(), Epoch: ep.seq,
		Quant: o.Quantize, IDOffset: ix.idOffset,
	}
	if err := gob.NewEncoder(&optBuf).Encode(so); err != nil {
		return fmt.Errorf("usp: encoding options: %w", err)
	}

	// Models and tables, each bin in the order the read path scans it: the
	// loaded index packs the tables again and serves candidates in exactly
	// the live order. A hierarchy index — one tree, whatever its depth — is
	// written as a hierarchy spec, anything else as an ensemble spec.
	var modelBuf bytes.Buffer
	var err error
	if len(o.Hierarchy) > 0 {
		modelBuf.WriteByte(modelKindHierarchy)
		err = core.SaveHierarchy(&modelBuf, ep.router.Parts[0])
	} else {
		modelBuf.WriteByte(modelKindEnsemble)
		err = core.SaveEnsemble(&modelBuf, ep.router)
	}
	if err != nil {
		return err
	}

	tombBuf := encodeBitmap(ep.tombs)
	deadBuf := encodeBitmap(ep.deadSet)

	var u8 [8]byte
	n := ep.data.N
	sections := []struct {
		id  uint32
		len uint64
	}{
		{secOptions, uint64(optBuf.Len())},
		{secModel, uint64(modelBuf.Len())},
		{secDataset, uint64(16 + 4*n*ix.dim)},
		{secTombstones, uint64(tombBuf.Len())},
		{secDeadSet, uint64(deadBuf.Len())},
	}
	// The quant section holds the codebooks plus the flat per-row codes; the
	// header is staged (it is tiny next to the code payload, which streams
	// straight from the epoch's view). Readers that predate the section skip
	// it by id, so quantized snapshots stay loadable as float-only indexes.
	var quantHdr *bytes.Buffer
	if qv := ep.quant; qv != nil {
		quantHdr = encodeQuantHeader(qv.pq, n)
		sections = append(sections, struct {
			id  uint32
			len uint64
		}{secQuant, uint64(quantHdr.Len() + len(qv.codes))})
	}

	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(snapMagic); err != nil {
		return err
	}
	var u4 [4]byte
	binary.LittleEndian.PutUint32(u4[:], snapVersion)
	bw.Write(u4[:])
	binary.LittleEndian.PutUint32(u4[:], uint32(len(sections)))
	bw.Write(u4[:])
	off := uint64(snapHeaderFixed + snapSectionEntry*len(sections))
	for _, s := range sections {
		binary.LittleEndian.PutUint32(u4[:], s.id)
		bw.Write(u4[:])
		binary.LittleEndian.PutUint32(u4[:], 0)
		bw.Write(u4[:])
		binary.LittleEndian.PutUint64(u8[:], off)
		bw.Write(u8[:])
		binary.LittleEndian.PutUint64(u8[:], s.len)
		bw.Write(u8[:])
		off += s.len
	}

	bw.Write(optBuf.Bytes())
	bw.Write(modelBuf.Bytes())

	binary.LittleEndian.PutUint64(u8[:], uint64(n))
	bw.Write(u8[:])
	binary.LittleEndian.PutUint32(u4[:], uint32(ix.dim))
	bw.Write(u4[:])
	binary.LittleEndian.PutUint32(u4[:], 0)
	bw.Write(u4[:])
	if err := writeFloats(bw, ep.data.Data); err != nil {
		return err
	}

	bw.Write(tombBuf.Bytes())
	bw.Write(deadBuf.Bytes())
	if quantHdr != nil {
		bw.Write(quantHdr.Bytes())
		if _, err := bw.Write(ep.quant.codes); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// encodeQuantHeader stages everything of the quant section except the code
// payload: flags, shape, subspace bounds, and the centroid tables.
//
//	[4] flags (reserved; currently 0)
//	[4] M (subspaces)  [4] K  [4] dim  [8] rows
//	(M+1)×[4] bounds
//	per subspace: [4] centroid count  [4] subDim  count·subDim float32s
//	rows·M code bytes (streamed by the caller)
//
// The section is deliberately pure fixed-layout binary — a gob decoder
// buffers past its payload, which would corrupt the strictly-forward
// section walk in Load.
func encodeQuantHeader(pq *quant.PQ, rows int) *bytes.Buffer {
	var buf bytes.Buffer
	var u4 [4]byte
	var u8 [8]byte
	put4 := func(v uint32) {
		binary.LittleEndian.PutUint32(u4[:], v)
		buf.Write(u4[:])
	}
	put4(0) // flags
	put4(uint32(pq.Subspaces))
	put4(uint32(pq.K))
	put4(uint32(pq.Dim))
	binary.LittleEndian.PutUint64(u8[:], uint64(rows))
	buf.Write(u8[:])
	for _, b := range pq.Bounds {
		put4(uint32(b))
	}
	for _, cb := range pq.Codebooks {
		put4(uint32(cb.N))
		put4(uint32(cb.Dim))
		for _, v := range cb.Data {
			binary.LittleEndian.PutUint32(u4[:], math.Float32bits(v))
			buf.Write(u4[:])
		}
	}
	return &buf
}

// readQuantSection parses the payload encodeQuantHeader + codes wrote.
func readQuantSection(r *io.LimitedReader) (*quant.PQ, []uint8, error) {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, nil, fmt.Errorf("reading quant header: %w", err)
	}
	m := binary.LittleEndian.Uint32(hdr[4:8])
	k := binary.LittleEndian.Uint32(hdr[8:12])
	dim := binary.LittleEndian.Uint32(hdr[12:16])
	rows := binary.LittleEndian.Uint64(hdr[16:24])
	if m == 0 || m > dim || k == 0 || k > 256 || dim > 1<<20 || rows > 1<<40 {
		return nil, nil, fmt.Errorf("implausible quant shape m=%d k=%d dim=%d rows=%d", m, k, dim, rows)
	}
	if err := fits(r, 4*uint64(m+1), "quant bounds"); err != nil {
		return nil, nil, err
	}
	bounds := make([]int, m+1)
	var u4 [4]byte
	for i := range bounds {
		if _, err := io.ReadFull(r, u4[:]); err != nil {
			return nil, nil, fmt.Errorf("reading quant bounds: %w", err)
		}
		bounds[i] = int(binary.LittleEndian.Uint32(u4[:]))
	}
	if bounds[0] != 0 || bounds[m] != int(dim) {
		return nil, nil, fmt.Errorf("implausible quant bounds [%d..%d] for dim %d", bounds[0], bounds[m], dim)
	}
	codebooks := make([]*dataset.Dataset, m)
	var cb8 [8]byte
	for s := range codebooks {
		if _, err := io.ReadFull(r, cb8[:]); err != nil {
			return nil, nil, fmt.Errorf("reading quant codebook %d header: %w", s, err)
		}
		cn := binary.LittleEndian.Uint32(cb8[0:4])
		cd := binary.LittleEndian.Uint32(cb8[4:8])
		if cn == 0 || cn > k || int(cd) != bounds[s+1]-bounds[s] {
			return nil, nil, fmt.Errorf("implausible quant codebook %d shape %dx%d", s, cn, cd)
		}
		if err := fits(r, 4*uint64(cn)*uint64(cd), "quant codebook floats"); err != nil {
			return nil, nil, err
		}
		data, err := readFloats(r, int(cn)*int(cd))
		if err != nil {
			return nil, nil, fmt.Errorf("reading quant codebook %d: %w", s, err)
		}
		codebooks[s] = &dataset.Dataset{N: int(cn), Dim: int(cd), Data: data}
	}
	pq, err := quant.FromCodebooks(int(dim), int(k), bounds, codebooks)
	if err != nil {
		return nil, nil, err
	}
	if err := fits(r, rows*uint64(m), "quant codes"); err != nil {
		return nil, nil, err
	}
	codes := make([]uint8, int(rows)*int(m))
	if _, err := io.ReadFull(r, codes); err != nil {
		return nil, nil, fmt.Errorf("reading quant codes: %w", err)
	}
	return pq, codes, nil
}

// encodeBitmap serializes a bitset as a word count plus its words.
func encodeBitmap(s *bitset.Set) *bytes.Buffer {
	words := s.Words()
	var buf bytes.Buffer
	var u8 [8]byte
	binary.LittleEndian.PutUint64(u8[:], uint64(len(words)))
	buf.Write(u8[:])
	for _, wd := range words {
		binary.LittleEndian.PutUint64(u8[:], wd)
		buf.Write(u8[:])
	}
	return &buf
}

// writeFloats streams vals in 64 KB staging chunks (mirroring readFloats);
// the dataset payload dominates a snapshot, so per-element Write calls
// would be the bottleneck.
func writeFloats(bw *bufio.Writer, vals []float32) error {
	buf := make([]byte, 1<<16)
	for len(vals) > 0 {
		span := len(vals)
		if span > len(buf)/4 {
			span = len(buf) / 4
		}
		for j := 0; j < span; j++ {
			binary.LittleEndian.PutUint32(buf[j*4:], math.Float32bits(vals[j]))
		}
		if _, err := bw.Write(buf[:span*4]); err != nil {
			return err
		}
		vals = vals[span:]
	}
	return nil
}

// SaveFile writes a snapshot to path. The file is closed exactly once, and
// a close error (where buffered data is actually written on many
// filesystems) surfaces when no earlier write failed.
func (ix *Index) SaveFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	return ix.Save(f)
}

// Load reads a snapshot written by Save and returns a servable index. The
// stream is consumed strictly forward (sections are stored in offset
// order; unknown sections are skipped), so r needs no seeking. No count in
// a section sizes an allocation past the section's length; when r reports
// its Size, as LoadFile's reader does, no section length passes the end of
// the input either.
func Load(r io.Reader) (*Index, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [snapHeaderFixed]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("usp: reading snapshot header: %w", err)
	}
	if string(hdr[:8]) != snapMagic {
		return nil, fmt.Errorf("usp: not a snapshot file (magic %q)", hdr[:8])
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != snapVersion {
		return nil, fmt.Errorf("usp: unsupported snapshot version %d", v)
	}
	count := binary.LittleEndian.Uint32(hdr[12:16])
	if count == 0 || count > 1024 {
		return nil, fmt.Errorf("usp: implausible section count %d", count)
	}
	// A reader that knows its size (a file through LoadFile, a bytes.Reader)
	// bounds every section by it, so a section length read from the file
	// cannot claim more bytes than the input holds.
	size := int64(-1)
	if s, ok := r.(interface{ Size() int64 }); ok {
		size = s.Size()
	}
	type entry struct {
		id       uint32
		off, len uint64
	}
	entries := make([]entry, count)
	var eb [snapSectionEntry]byte
	for i := range entries {
		if _, err := io.ReadFull(br, eb[:]); err != nil {
			return nil, fmt.Errorf("usp: reading section table: %w", err)
		}
		e := entry{
			id:  binary.LittleEndian.Uint32(eb[0:4]),
			off: binary.LittleEndian.Uint64(eb[8:16]),
			len: binary.LittleEndian.Uint64(eb[16:24]),
		}
		if size >= 0 && (e.off > uint64(size) || e.len > uint64(size)-e.off) {
			return nil, fmt.Errorf("usp: section %d (%d bytes at %d) runs past the %d-byte input", e.id, e.len, e.off, size)
		}
		entries[i] = e
	}

	var (
		so      *snapOptions
		router  *core.Ensemble
		tree    bool // the model section holds a hierarchy spec
		ds      *dataset.Dataset
		tombs   *bitset.Set
		deadSet *bitset.Set
		pq      *quant.PQ
		codes   []uint8
	)
	pos := uint64(snapHeaderFixed) + uint64(snapSectionEntry)*uint64(count)
	for _, e := range entries {
		if e.off < pos {
			return nil, fmt.Errorf("usp: section %d overlaps (offset %d < position %d)", e.id, e.off, pos)
		}
		if _, err := io.CopyN(io.Discard, br, int64(e.off-pos)); err != nil {
			return nil, fmt.Errorf("usp: seeking section %d: %w", e.id, err)
		}
		lr := &io.LimitedReader{R: br, N: int64(e.len)}
		var err error
		switch e.id {
		case secOptions:
			so = &snapOptions{}
			err = gob.NewDecoder(lr).Decode(so)
		case secModel:
			router, tree, err = readModelSection(lr)
		case secDataset:
			ds, err = readDatasetSection(lr)
		case secTombstones:
			tombs, err = readBitmapSection(lr)
		case secDeadSet:
			deadSet, err = readBitmapSection(lr)
		case secQuant:
			pq, codes, err = readQuantSection(lr)
		}
		if err != nil {
			return nil, fmt.Errorf("usp: section %d: %w", e.id, err)
		}
		if _, err := io.Copy(io.Discard, lr); err != nil {
			return nil, fmt.Errorf("usp: draining section %d: %w", e.id, err)
		}
		pos = e.off + e.len
	}

	if so == nil || ds == nil || router == nil {
		return nil, fmt.Errorf("usp: snapshot missing a required section (options/model/dataset)")
	}
	// Save picks the spec from the options, so a file whose two disagree
	// could not be written back faithfully.
	if tree != (len(so.Hierarchy) > 0) {
		return nil, fmt.Errorf("usp: model section (hierarchy spec: %t) disagrees with options (hierarchy %v)", tree, so.Hierarchy)
	}
	// The tables and models are untrusted too: an id past the rows or a
	// shape that disagrees with its model would panic in the first query
	// that probes it, on a goroutine nothing recovers.
	if err := router.Validate(ds.N, ds.Dim); err != nil {
		return nil, fmt.Errorf("usp: model section: %w", err)
	}
	// The norm cache is derived data, computed here and never read from the
	// file: a cache that is not Dot(x, x) of this process's kernels — one
	// written under another kernel set, or corrupted, as older files carry
	// in the retired section 4 — would make exact-match distances nonzero.
	ds.EnsureSqNorms(false)

	if deadSet.Count() != so.Dead {
		return nil, fmt.Errorf("usp: dead-set section (%d ids) disagrees with options (%d)",
			deadSet.Count(), so.Dead)
	}
	if pq != nil {
		if pq.Dim != ds.Dim || len(codes) != ds.N*pq.Subspaces {
			return nil, fmt.Errorf("usp: quant section (dim %d, %d codes) disagrees with dataset (dim %d, %d rows)",
				pq.Dim, len(codes), ds.Dim, ds.N)
		}
	}
	opt := Options{
		Bins: so.Bins, KPrime: so.KPrime, Epochs: so.Epochs, BatchSize: so.BatchSize,
		Ensemble: so.Ensemble, Eta: Float(so.Eta), Dropout: Float(so.Dropout),
		Hidden: so.Hidden, Logistic: so.Logistic, Hierarchy: so.Hierarchy,
		Seed: so.Seed, CompactAfter: so.CompactAfter,
	}.withDefaults()
	opt.Quantize = so.Quant
	// A snapshot whose quant section was dropped (or written by a future
	// format this reader skips) degrades to a float-only index: leaving
	// Enabled set with no codebooks would promise a scan we cannot run.
	if pq == nil {
		opt.Quantize.Enabled = false
	}
	ix := newIndex(ds, router, opt, so.Stats, so.Epoch, tombs, deadSet, pq, codes)
	ix.idOffset = so.IDOffset
	return ix, nil
}

// LoadFile reads a snapshot file written by SaveFile.
func LoadFile(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return Load(io.NewSectionReader(f, 0, fi.Size()))
}

// IsSnapshotFile sniffs whether path starts with the snapshot magic — how
// cmd/uspquery tells a snapshot from any other file before loading it.
func IsSnapshotFile(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var m [8]byte
	if _, err := io.ReadFull(f, m[:]); err != nil {
		return false
	}
	return string(m[:]) == snapMagic
}

// readModelSection decodes either spec into the one router type, and
// reports whether it was a hierarchy spec.
func readModelSection(r io.Reader) (*core.Ensemble, bool, error) {
	var kind [1]byte
	if _, err := io.ReadFull(r, kind[:]); err != nil {
		return nil, false, fmt.Errorf("reading model kind: %w", err)
	}
	switch kind[0] {
	case modelKindEnsemble:
		ens, err := core.LoadEnsemble(r)
		return ens, false, err
	case modelKindHierarchy:
		h, err := core.LoadHierarchy(r)
		if err != nil {
			return nil, true, err
		}
		return core.OneTree(h), true, nil
	default:
		return nil, false, fmt.Errorf("unknown model kind %d", kind[0])
	}
}

// fits returns an error unless the section has n more bytes: every count a
// section declares is checked against the section's length before anything
// is sized from it, so a few bytes cannot claim gigabytes.
func fits(r *io.LimitedReader, n uint64, what string) error {
	if left := max(r.N, 0); n > uint64(left) {
		return fmt.Errorf("%s need %d bytes, %d left in the section", what, n, left)
	}
	return nil
}

func readDatasetSection(r *io.LimitedReader) (*dataset.Dataset, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("reading dataset header: %w", err)
	}
	n := binary.LittleEndian.Uint64(hdr[0:8])
	dim := binary.LittleEndian.Uint32(hdr[8:12])
	if dim == 0 || dim > 1<<20 || n > 1<<40 {
		return nil, fmt.Errorf("implausible dataset shape n=%d dim=%d", n, dim)
	}
	if err := fits(r, 4*n*uint64(dim), "dataset rows"); err != nil {
		return nil, err
	}
	data, err := readFloats(r, int(n)*int(dim))
	if err != nil {
		return nil, fmt.Errorf("reading rows: %w", err)
	}
	// The rows are untrusted like every other section: one Add would have
	// refused must not be served either.
	for i := 0; i < int(n); i++ {
		if err := ValidateVector(data[i*int(dim) : (i+1)*int(dim)]); err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
	}
	return &dataset.Dataset{N: int(n), Dim: int(dim), Data: data}, nil
}

func readBitmapSection(r *io.LimitedReader) (*bitset.Set, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("reading bitmap header: %w", err)
	}
	nw := binary.LittleEndian.Uint64(hdr[:])
	if nw > 1<<34 {
		return nil, fmt.Errorf("implausible bitmap word count %d", nw)
	}
	if err := fits(r, 8*nw, "bitmap words"); err != nil {
		return nil, err
	}
	words := make([]uint64, nw)
	buf := make([]byte, 1<<14)
	for i := 0; i < len(words); {
		span := len(words) - i
		if span > len(buf)/8 {
			span = len(buf) / 8
		}
		if _, err := io.ReadFull(r, buf[:span*8]); err != nil {
			return nil, fmt.Errorf("reading bitmap words: %w", err)
		}
		for j := 0; j < span; j++ {
			words[i+j] = binary.LittleEndian.Uint64(buf[j*8:])
		}
		i += span
	}
	return bitset.FromWords(words), nil
}

func readFloats(r io.Reader, n int) ([]float32, error) {
	out := make([]float32, n)
	buf := make([]byte, 1<<16)
	for i := 0; i < n; {
		span := n - i
		if span > len(buf)/4 {
			span = len(buf) / 4
		}
		if _, err := io.ReadFull(r, buf[:span*4]); err != nil {
			return nil, err
		}
		for j := 0; j < span; j++ {
			out[i+j] = math.Float32frombits(binary.LittleEndian.Uint32(buf[j*4:]))
		}
		i += span
	}
	return out, nil
}
