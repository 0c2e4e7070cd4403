// Wire codec of the tier's four search messages — SearchRequest,
// BatchSearchRequest, SearchResponse, BatchSearchResponse. This package's
// handlers decode the requests and encode the replies; the fan-out front
// decodes the shards' replies and encodes its merged ones, and never reads a
// request. Every other endpoint stays on encoding/json.
//
// Decoding is one pass of a strict scanner over the body bytes: an object
// whose keys are the message's own field names, spelled exactly, each at most
// once and in any order; integers as plain integer literals; float arrays as
// JSON numbers handed to strconv.ParseFloat(…, 32), the call encoding/json
// itself makes; JSON white space anywhere it is legal; nothing but white
// space after the closing brace. Anything else — an escaped or differently
// cased key, null, an unknown or repeated key, a fraction where an integer
// belongs, a number float32 cannot hold, a syntax error — makes the scanner
// report "not canonical", and the same bytes go to json.Unmarshal. Which path
// runs depends only on the bytes, and on every input the verdict and the
// decoded values are json.Unmarshal's: by construction off the canonical
// grammar, and by the differential fuzz targets in wire_test.go on it.
//
// Encoding appends exactly the bytes json.Marshal produces for the same
// struct (field order, null for a nil slice, the float format switch at 1e-6
// and 1e21, HTML-safe string escaping), so replies are unchanged on the wire.
//
// Steady state allocates nothing: slices of the destination struct are
// reused, batch rows are resliced out of one flat Arena, and handlers keep
// all of it in a pooled Scratch.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
)

// MaxBodyBytes bounds a body read from the network — a request to any POST
// endpoint at either tier, a shard's reply at the front. It admits a
// /search/batch of about twenty thousand 128-float queries; a larger request
// is refused with 413 before it is buffered.
const MaxBodyBytes = 32 << 20

// maxPooledBytes is the most memory a Scratch may keep when it returns to
// the pool, so one huge batch does not pin its buffers for the life of the
// process.
const maxPooledBytes = 1 << 20

// errReplyShape marks a search reply whose ids and distances do not pair up.
// Decoding refuses it so that no merge ever indexes one array by the other's
// length.
var errReplyShape = errors.New("search reply: ids and distances differ in shape")

// Arena is the flat storage behind the rows of one batch message, decoded or
// under construction: rows are resliced out of it, so a batch costs no
// allocation per row.
type Arena struct {
	floats []float32
	ints   []int
}

// Reset empties r for an answer of n neighbors to be appended to, reusing its
// slices. With none to come, ids and distances are nil and encode as null —
// what appending nothing to a fresh struct always produced.
func (r *SearchResponse) Reset(n int) {
	ids, ds := r.IDs[:0], r.Distances[:0]
	if n == 0 {
		ids, ds = nil, nil
	}
	*r = SearchResponse{IDs: ids, Distances: ds}
}

// Reset empties r so that it can be rebuilt row by row out of a; rows handed
// out of a before are invalid afterwards. The row lists are never nil, so a
// reply to zero queries encodes as [] like a made slice does.
func (r *BatchSearchResponse) Reset(a *Arena) {
	a.floats, a.ints = a.floats[:0], a.ints[:0]
	*r = BatchSearchResponse{IDs: r.IDs[:0], Distances: r.Distances[:0]}
	if r.IDs == nil || r.Distances == nil {
		r.IDs, r.Distances = [][]int{}, [][]float32{}
	}
}

// AddRow appends one answer of n neighbors to r, stored in a, and returns its
// ids and distances for the caller to fill. An empty row is not nil either.
func (r *BatchSearchResponse) AddRow(a *Arena, n int) ([]int, []float32) {
	ids, ds := []int{}, []float32{}
	if n > 0 {
		i, f := len(a.ints), len(a.floats)
		a.ints = append(a.ints, make([]int, n)...)
		a.floats = append(a.floats, make([]float32, n)...)
		ids, ds = a.ints[i:i+n:i+n], a.floats[f:f+n:f+n]
	}
	r.IDs, r.Distances = append(r.IDs, ids), append(r.Distances, ds)
	return ids, ds
}

// Scratch is the per-request memory of a search handler at either tier: the
// bytes read from the peer, the bytes to send, and the decoded messages with
// the arenas behind their rows. Take one with GetScratch and hand it back
// with PutScratch once nothing refers to its contents.
type Scratch struct {
	// Body holds bytes read from the peer: a client's request at a backend,
	// a shard's reply at the front.
	Body []byte
	// Out holds the reply under construction.
	Out []byte

	Req       SearchRequest
	Batch     BatchSearchRequest
	Resp      SearchResponse
	BatchResp BatchSearchResponse
	// In backs the rows of whichever batch message was decoded from Body,
	// Rows those of a BatchResp being built for Out.
	In, Rows Arena
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch returns a Scratch from the pool.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns sc to the pool, unless it grew past maxPooledBytes.
func PutScratch(sc *Scratch) {
	if sc.retained() <= maxPooledBytes {
		scratchPool.Put(sc)
	}
}

// retained is the memory, in bytes, that sc's buffers hold on to.
func (sc *Scratch) retained() int {
	floats := cap(sc.Req.Vector) + cap(sc.Resp.Distances) + cap(sc.In.floats) + cap(sc.Rows.floats)
	ints := cap(sc.Resp.IDs) + cap(sc.In.ints) + cap(sc.Rows.ints)
	rows := cap(sc.Batch.Vectors) + cap(sc.BatchResp.IDs) + cap(sc.BatchResp.Distances)
	return cap(sc.Body) + cap(sc.Out) + 4*floats + 8*ints + 24*rows
}

// ReadBody appends r to dst until EOF and returns the result; more than
// MaxBodyBytes is an error. sizeHint is the expected length (a Content-Length
// header), or not positive when unknown.
func ReadBody(dst []byte, r io.Reader, sizeHint int64) ([]byte, error) {
	if sizeHint > 0 && sizeHint <= MaxBodyBytes && int64(cap(dst)-len(dst)) <= sizeHint {
		// One byte beyond the hint, so the read that reports EOF has room.
		grown := make([]byte, len(dst), int64(len(dst))+sizeHint+1)
		copy(grown, dst)
		dst = grown
	}
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if len(dst) > MaxBodyBytes {
			return dst, fmt.Errorf("body exceeds %d bytes", MaxBodyBytes)
		}
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// ReadRequest appends r's body to buf and returns it. On failure it has
// already answered — 413 for a body over MaxBodyBytes, 400 for one that
// could not be read — and reports false.
func ReadRequest(w http.ResponseWriter, r *http.Request, buf []byte) ([]byte, bool) {
	buf, err := ReadBody(buf, http.MaxBytesReader(w, r.Body, MaxBodyBytes), r.ContentLength)
	if err == nil {
		return buf, true
	}
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	http.Error(w, "bad request: "+err.Error(), status)
	return buf, false
}

// ReadJSON reads r's body as ReadRequest does and decodes it into v with
// json.Unmarshal, so anything after the first JSON value is refused. On
// failure it has already answered — 413 or 400 — and reports false.
func ReadJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	body, ok := ReadRequest(w, r, nil)
	if !ok {
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// DecodeSearchReply decodes the /search reply in sc.Body into sc.Resp.
func (sc *Scratch) DecodeSearchReply() error { return DecodeSearchResponse(&sc.Resp, sc.Body) }

// DecodeBatchReply decodes the /search/batch reply in sc.Body into
// sc.BatchResp, its rows in sc.In.
func (sc *Scratch) DecodeBatchReply() error {
	return DecodeBatchSearchResponse(&sc.BatchResp, sc.Body, &sc.In)
}

// EncodeSearchReply sets sc.Out to the wire form of sc.Resp: its JSON
// encoding and the newline json.Encoder ends every value with.
func (sc *Scratch) EncodeSearchReply() (err error) {
	sc.Out, err = AppendSearchResponse(sc.Out[:0], &sc.Resp)
	sc.Out = append(sc.Out, '\n')
	return err
}

// EncodeBatchReply is EncodeSearchReply for sc.BatchResp.
func (sc *Scratch) EncodeBatchReply() (err error) {
	sc.Out, err = AppendBatchSearchResponse(sc.Out[:0], &sc.BatchResp)
	sc.Out = append(sc.Out, '\n')
	return err
}

// WriteReply sends an encoded search reply. The length is set up front so
// that net/http does not fall back to chunked framing for a large batch.
func WriteReply(w http.ResponseWriter, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body) // a failed write means the client is gone
}

// decodeSearchRequest decodes a /search body into dst, reusing dst.Vector's
// capacity. Verdict and values are those of json.Unmarshal into a zero
// SearchRequest.
func decodeSearchRequest(dst *SearchRequest, body []byte) error {
	*dst = SearchRequest{Vector: dst.Vector[:0]}
	if scanSearchRequest(dst, body) {
		return nil
	}
	*dst = SearchRequest{}
	return json.Unmarshal(body, dst)
}

// decodeBatchSearchRequest decodes a /search/batch body into dst, its rows
// resliced out of a; the rows stay valid until a is used again.
func decodeBatchSearchRequest(dst *BatchSearchRequest, body []byte, a *Arena) error {
	*dst = BatchSearchRequest{Vectors: dst.Vectors[:0]}
	if scanBatchSearchRequest(dst, body, a) {
		return nil
	}
	*dst = BatchSearchRequest{}
	return json.Unmarshal(body, dst)
}

// DecodeSearchResponse decodes a /search reply into dst, reusing the
// capacity of dst.IDs and dst.Distances. Beyond json.Unmarshal's verdict it
// refuses a reply whose ids and distances differ in length.
func DecodeSearchResponse(dst *SearchResponse, body []byte) error {
	*dst = SearchResponse{IDs: dst.IDs[:0], Distances: dst.Distances[:0]}
	if !scanSearchResponse(dst, body) {
		*dst = SearchResponse{}
		if err := json.Unmarshal(body, dst); err != nil {
			return err
		}
	}
	if len(dst.IDs) != len(dst.Distances) {
		return errReplyShape
	}
	return nil
}

// DecodeBatchSearchResponse decodes a /search/batch reply into dst, its rows
// resliced out of a. Beyond json.Unmarshal's verdict it refuses a reply whose
// ids and distances differ in row count or in the length of any row.
func DecodeBatchSearchResponse(dst *BatchSearchResponse, body []byte, a *Arena) error {
	*dst = BatchSearchResponse{IDs: dst.IDs[:0], Distances: dst.Distances[:0]}
	if !scanBatchSearchResponse(dst, body, a) {
		*dst = BatchSearchResponse{}
		if err := json.Unmarshal(body, dst); err != nil {
			return err
		}
	}
	if len(dst.IDs) != len(dst.Distances) {
		return errReplyShape
	}
	for i := range dst.IDs {
		if len(dst.IDs[i]) != len(dst.Distances[i]) {
			return errReplyShape
		}
	}
	return nil
}

// AppendSearchResponse appends r's JSON encoding to dst — the bytes
// json.Marshal(r) returns — and, like it, fails on a non-finite distance.
func AppendSearchResponse(dst []byte, r *SearchResponse) ([]byte, error) {
	var err error
	dst = appendInts(append(dst, `{"ids":`...), r.IDs)
	if dst, err = appendFloats(append(dst, `,"distances":`...), r.Distances); err != nil {
		return dst, err
	}
	dst = strconv.AppendInt(append(dst, `,"id_offset":`...), int64(r.IDOffset), 10)
	dst = strconv.AppendInt(append(dst, `,"k":`...), int64(r.K), 10)
	dst = strconv.AppendInt(append(dst, `,"scanned":`...), int64(r.Scanned), 10)
	dst = appendString(append(dst, `,"elapsed":`...), r.Elapsed)
	return append(dst, '}'), nil
}

// AppendBatchSearchResponse appends r's JSON encoding to dst — the bytes
// json.Marshal(r) returns — and, like it, fails on a non-finite distance.
func AppendBatchSearchResponse(dst []byte, r *BatchSearchResponse) ([]byte, error) {
	dst = append(dst, `{"ids":`...)
	if r.IDs == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, row := range r.IDs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendInts(dst, row)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"distances":`...)
	if r.Distances == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, row := range r.Distances {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = appendFloats(dst, row); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	dst = strconv.AppendInt(append(dst, `,"id_offset":`...), int64(r.IDOffset), 10)
	dst = strconv.AppendInt(append(dst, `,"k":`...), int64(r.K), 10)
	dst = appendString(append(dst, `,"elapsed":`...), r.Elapsed)
	return append(dst, '}'), nil
}

func appendInts(dst []byte, v []int) []byte {
	if v == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, n := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(n), 10)
	}
	return append(dst, ']')
}

// appendFloats follows encoding/json's float32 encoder: shortest digits that
// round-trip, exponent form below 1e-6 and from 1e21 (compared as float32),
// and e-09 written e-9.
func appendFloats(dst []byte, v []float32) ([]byte, error) {
	if v == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i, f := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		if f-f != 0 {
			return dst, fmt.Errorf("json: unsupported value: %v", f)
		}
		format := byte('f')
		if abs := float32(math.Abs(float64(f))); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
			format = 'e'
		}
		dst = strconv.AppendFloat(dst, float64(f), format, -1, 32)
		if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return append(dst, ']'), nil
}

// appendString quotes s. A string made only of bytes encoding/json copies
// through unchanged — the only kind a time.Duration prints — is copied;
// any other goes through json.Marshal.
func appendString(dst []byte, s string) []byte {
	plain := utf8.ValidString(s)
	for i := 0; plain && i < len(s); i++ {
		switch c := s[i]; {
		// 0xE2 leads U+2028 and U+2029, which encoding/json escapes.
		case c < 0x20, c == '"', c == '\\', c == '<', c == '>', c == '&', c == 0xE2:
			plain = false
		}
	}
	if !plain {
		quoted, _ := json.Marshal(s) // a string always marshals
		return append(dst, quoted...)
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// scanner reads one message body front to back. Every method reports false
// for anything outside the canonical grammar and leaves the verdict to
// encoding/json; none of them rejects input itself.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) skipSpace() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// eat consumes c, and any white space before it.
func (s *scanner) eat(c byte) bool {
	s.skipSpace()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// atEnd reports whether only white space remains.
func (s *scanner) atEnd() bool {
	s.skipSpace()
	return s.i == len(s.b)
}

// nextKey opens the object (before the first field, seen == 0) or steps past
// a comma, and returns the next field's key with its colon consumed; done
// reports the closing brace instead.
func (s *scanner) nextKey(seen int) (key []byte, done, ok bool) {
	if seen == 0 && !s.eat('{') {
		return nil, false, false
	}
	if s.eat('}') {
		return nil, true, true
	}
	if seen > 0 && !s.eat(',') {
		return nil, false, false
	}
	if key, ok = s.str(); !ok || !s.eat(':') {
		return nil, false, false
	}
	return key, false, true
}

// str consumes a string literal that decodes to its own bytes: no escapes,
// no control characters, valid UTF-8.
func (s *scanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			lit := s.b[start:s.i]
			s.i++
			return lit, utf8.Valid(lit)
		case c == '\\', c < 0x20:
			return nil, false
		}
	}
	return nil, false
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// digits consumes a run of at least one digit.
func (s *scanner) digits() bool {
	start := s.i
	for s.i < len(s.b) && isDigit(s.b[s.i]) {
		s.i++
	}
	return s.i > start
}

// number consumes one JSON number literal and reports whether it is whole:
// written without fraction or exponent.
func (s *scanner) number() (lit []byte, whole, ok bool) {
	s.skipSpace()
	start := s.i
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	switch {
	case s.i < len(s.b) && s.b[s.i] == '0':
		s.i++ // a leading zero stands alone
	case !s.digits():
		return nil, false, false
	}
	whole = true
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		if whole = false; !s.digits() {
			return nil, false, false
		}
	}
	if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		s.i++
		if s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		if whole = false; !s.digits() {
			return nil, false, false
		}
	}
	return s.b[start:s.i], whole, true
}

// integer consumes a whole number of at most 18 characters, which cannot
// overflow; longer ones are left to encoding/json.
func (s *scanner) integer() (int, bool) {
	lit, whole, ok := s.number()
	if !ok || !whole || len(lit) > 18 {
		return 0, false
	}
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	n := 0
	for _, c := range lit {
		n = n*10 + int(c-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}

// float consumes a number and converts it as encoding/json does.
func (s *scanner) float() (float32, bool) {
	lit, _, ok := s.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(lit), 32)
	return float32(f), err == nil
}

// floats appends the numbers of one array to dst.
func (s *scanner) floats(dst []float32) ([]float32, bool) {
	if !s.eat('[') {
		return dst, false
	}
	if s.eat(']') {
		return dst, true
	}
	for {
		f, ok := s.float()
		if !ok {
			return dst, false
		}
		dst = append(dst, f)
		if !s.eat(',') {
			return dst, s.eat(']')
		}
	}
}

// ints appends the integers of one array to dst.
func (s *scanner) ints(dst []int) ([]int, bool) {
	if !s.eat('[') {
		return dst, false
	}
	if s.eat(']') {
		return dst, true
	}
	for {
		n, ok := s.integer()
		if !ok {
			return dst, false
		}
		dst = append(dst, n)
		if !s.eat(',') {
			return dst, s.eat(']')
		}
	}
}

// floatRows appends one row per inner array to rows, the numbers themselves
// to arena. A row keeps pointing at the memory it was parsed into, so it
// stays intact when a later row makes the arena grow and move. (floatRows
// and intRows stay two functions: one generic function taking the row
// scanner as a func value would make the scanner escape to the heap.)
func (s *scanner) floatRows(rows [][]float32, arena *[]float32) ([][]float32, bool) {
	if !s.eat('[') {
		return rows, false
	}
	if s.eat(']') {
		return rows, true
	}
	a, ok := *arena, true
	for ok {
		start := len(a)
		if a, ok = s.floats(a); !ok {
			break
		}
		rows = append(rows, a[start:len(a):len(a)])
		if !s.eat(',') {
			ok = s.eat(']')
			break
		}
	}
	*arena = a
	return rows, ok
}

// intRows is floatRows for integer arrays.
func (s *scanner) intRows(rows [][]int, arena *[]int) ([][]int, bool) {
	if !s.eat('[') {
		return rows, false
	}
	if s.eat(']') {
		return rows, true
	}
	a, ok := *arena, true
	for ok {
		start := len(a)
		if a, ok = s.ints(a); !ok {
			break
		}
		rows = append(rows, a[start:len(a):len(a)])
		if !s.eat(',') {
			ok = s.eat(']')
			break
		}
	}
	*arena = a
	return rows, ok
}

// The four message scanners share one shape: walk the fields, refuse an
// unknown or repeated key, require the end of input after the brace.

func scanSearchRequest(dst *SearchRequest, body []byte) bool {
	s := scanner{b: body}
	for seen, n := uint(0), 0; ; n++ {
		key, done, ok := s.nextKey(n)
		if !ok {
			return false
		}
		if done {
			return s.atEnd()
		}
		var bit uint
		switch string(key) {
		case "vector":
			bit = 1
			dst.Vector, ok = s.floats(dst.Vector)
		case "k":
			bit = 2
			dst.K, ok = s.integer()
		case "probes":
			bit = 4
			dst.Probes, ok = s.integer()
		case "rerank_k":
			bit = 8
			dst.RerankK, ok = s.integer()
		}
		if !ok || bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
	}
}

func scanBatchSearchRequest(dst *BatchSearchRequest, body []byte, a *Arena) bool {
	s := scanner{b: body}
	a.floats, a.ints = a.floats[:0], a.ints[:0]
	for seen, n := uint(0), 0; ; n++ {
		key, done, ok := s.nextKey(n)
		if !ok {
			return false
		}
		if done {
			return s.atEnd()
		}
		var bit uint
		switch string(key) {
		case "vectors":
			bit = 1
			dst.Vectors, ok = s.floatRows(dst.Vectors, &a.floats)
		case "k":
			bit = 2
			dst.K, ok = s.integer()
		case "probes":
			bit = 4
			dst.Probes, ok = s.integer()
		case "rerank_k":
			bit = 8
			dst.RerankK, ok = s.integer()
		}
		if !ok || bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
	}
}

func scanSearchResponse(dst *SearchResponse, body []byte) bool {
	s := scanner{b: body}
	for seen, n := uint(0), 0; ; n++ {
		key, done, ok := s.nextKey(n)
		if !ok {
			return false
		}
		if done {
			return s.atEnd()
		}
		var bit uint
		switch string(key) {
		case "ids":
			bit = 1
			dst.IDs, ok = s.ints(dst.IDs)
		case "distances":
			bit = 2
			dst.Distances, ok = s.floats(dst.Distances)
		case "id_offset":
			bit = 4
			dst.IDOffset, ok = s.integer()
		case "k":
			bit = 8
			dst.K, ok = s.integer()
		case "scanned":
			bit = 16
			dst.Scanned, ok = s.integer()
		case "elapsed":
			bit = 32
			var lit []byte
			lit, ok = s.str()
			dst.Elapsed = string(lit)
		}
		if !ok || bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
	}
}

func scanBatchSearchResponse(dst *BatchSearchResponse, body []byte, a *Arena) bool {
	s := scanner{b: body}
	a.floats, a.ints = a.floats[:0], a.ints[:0]
	for seen, n := uint(0), 0; ; n++ {
		key, done, ok := s.nextKey(n)
		if !ok {
			return false
		}
		if done {
			return s.atEnd()
		}
		var bit uint
		switch string(key) {
		case "ids":
			bit = 1
			dst.IDs, ok = s.intRows(dst.IDs, &a.ints)
		case "distances":
			bit = 2
			dst.Distances, ok = s.floatRows(dst.Distances, &a.floats)
		case "id_offset":
			bit = 4
			dst.IDOffset, ok = s.integer()
		case "k":
			bit = 8
			dst.K, ok = s.integer()
		case "elapsed":
			bit = 16
			var lit []byte
			lit, ok = s.str()
			dst.Elapsed = string(lit)
		}
		if !ok || bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
	}
}
