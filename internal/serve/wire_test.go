package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// wireVector is a dim-float query with the digit counts real float32 data
// prints with.
func wireVector(dim int) []float32 {
	rng := rand.New(rand.NewSource(7))
	v := make([]float32, dim)
	for i := range v {
		v[i] = float32(rng.NormFloat64()*2.2 + 3)
	}
	return v
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func sameFloatBits(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}

func sameFloatRows(a, b [][]float32) bool { return slices.EqualFunc(a, b, sameFloatBits) }

func sameIntRows(a, b [][]int) bool {
	return slices.EqualFunc(a, b, func(x, y []int) bool { return slices.Equal(x, y) })
}

// requestSeeds are bodies on and off the canonical grammar: the fuzz targets
// start from them, and plain `go test` runs them as a table.
var requestSeeds = []string{
	`{"vector":[1,2.5,-3e-2],"k":5,"probes":2,"rerank_k":-1}`,
	`{"vectors":[[1,2],[3,4]],"k":3}`,
	" {\n\t\"k\" : 7 ,\r\n \"vector\" : [ 0.25 , 1E2 , -0 ] } \n",
	`{"vector":[],"k":1}`,
	`{"vectors":[],"k":1}`,
	`{"vectors":[[],[1]],"k":1}`,
	`{}`,
	`{"vector":[1e39],"k":3}`,
	`{"vector":[-1e39],"k":3}`,
	`{"vector":[3.4028235e38,3.4028236e38,1E-46,1e-45,-0,-0.0],"k":3}`,
	`{"vector":[1,2],"k":3,"extra":{"a":[1,{"b":null}],"c":"}"}}`,
	`{"vector":[1,2`,
	`{"vector":[1,2],"k":`,
	`{"vector":[1,2],"vector":[3],"k":1}`,
	`{"vectors":[[1]],"vectors":[[2],[3]],"k":1}`,
	`{"vector":null,"k":2}`,
	`{"Vector":[1],"K":2,"PROBES":1}`,
	`{"vector":[1],"k":2}`,
	`{"vector":[1],"k":2.0}`,
	`{"vector":[1],"k":1e1}`,
	`{"vector":[1],"k":-0}`,
	`{"vector":[1],"k":99999999999999999999}`,
	`{"vector":[1],"k":123456789012345678}`,
	`{"vector":[01],"k":1}`,
	`{"vector":[1.],"k":1}`,
	`{"vector":[.5],"k":1}`,
	`{"vector":[+1],"k":1}`,
	`{"vector":[1e],"k":1}`,
	`{"vector":[0x10],"k":1}`,
	`{"vector":[NaN],"k":1}`,
	`{"vector":[Infinity],"k":1}`,
	`{"vector":[1_000],"k":1}`,
	`{"vector":[1,],"k":1}`,
	`{"vector":[1 2],"k":1}`,
	`{"vector":[1],"k":1,}`,
	`{"vector":[1],"k":1} trailing`,
	`{"vector":[1],"k":1}{"k":2}`,
	`{"vector":[1],"k":1}]`,
	`{"vector":["1"],"k":1}`,
	`{"vector":[[1]],"k":1}`,
	`{"vectors":[1],"k":1}`,
	`{"vector":1,"k":1}`,
	`{"vector":[1],"k":"1"}`,
	`{"vector":[0.1234567890123456789012345678901234567890],"k":1}`,
	`[{"vector":[1],"k":1}]`,
	`null`,
	`true`,
	`"x"`,
	``,
	` `,
	"{\"vector\":[1],\"k\":1}\x00",
	"\xef\xbb\xbf{\"vector\":[1],\"k\":1}",
}

var responseSeeds = []string{
	`{"ids":[3,1,2],"distances":[0,0.5,1.25],"id_offset":100,"scanned":42,"elapsed":"12.5µs"}`,
	`{"ids":[3,1],"distances":[0,0.5],"id_offset":100,"k":10,"scanned":42,"elapsed":"12.5µs"}`,
	`{"ids":[[3,1],[2]],"distances":[[0,0.5],[1e-7]],"id_offset":100,"elapsed":"1.2ms"}`,
	`{"ids":null,"distances":null,"id_offset":0,"scanned":0,"elapsed":"0s"}`,
	`{"ids":[],"distances":[],"id_offset":0,"scanned":0,"elapsed":""}`,
	`{"ids":[1,2,3],"distances":[0,1],"id_offset":0,"scanned":3,"elapsed":"1µs"}`,
	`{"ids":[[1,2],[3]],"distances":[[0,1]],"id_offset":0,"elapsed":"1µs"}`,
	`{"ids":[[1,2],[3]],"distances":[[0,1],[]],"id_offset":0,"elapsed":"1µs"}`,
	`{"ids":[-7],"distances":[1e21],"id_offset":-3,"scanned":1,"elapsed":"a\"b"}`,
	`{"ids":[1],"distances":[1],"elapsed":"µs"}`,
	"{\"ids\":[1],\"distances\":[1],\"elapsed\":\"\xff\"}",
	"{\"ids\":[1],\"distances\":[1],\"elapsed\":\"a\tb\"}",
	`{"ids":[1.5],"distances":[1]}`,
	`{"ids":[1],"distances":[1e39]}`,
	`{"ids":[1],"distances":[1],"scanned":1,"scanned":2}`,
	`{"ids":[1],"distances":[1]} x`,
	`{"ids":[1],"distances":[1],"elapsed":5}`,
}

// checkSearchRequest holds decodeSearchRequest to its contract on one body:
// json.Unmarshal's verdict and values, also into a struct that held another
// message before.
func checkSearchRequest(t *testing.T, body []byte) {
	var want SearchRequest
	wantErr := json.Unmarshal(body, &want)
	for _, got := range []SearchRequest{{}, {Vector: []float32{9, 9, 9, 9, 9, 9, 9, 9, 9}[:5], K: 9, Probes: 9, RerankK: 9}} {
		gotErr := decodeSearchRequest(&got, body)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: codec error %v, encoding/json error %v", body, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if got.K != want.K || got.Probes != want.Probes || got.RerankK != want.RerankK || !sameFloatBits(got.Vector, want.Vector) {
			t.Fatalf("%q: codec %+v, encoding/json %+v", body, got, want)
		}
	}
}

func checkBatchSearchRequest(t *testing.T, body []byte) {
	var want BatchSearchRequest
	wantErr := json.Unmarshal(body, &want)
	var got BatchSearchRequest
	var arena Arena
	for pass := 0; pass < 2; pass++ { // the second pass reuses rows and arena
		gotErr := decodeBatchSearchRequest(&got, body, &arena)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: codec error %v, encoding/json error %v", body, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if got.K != want.K || got.Probes != want.Probes || got.RerankK != want.RerankK || !sameFloatRows(got.Vectors, want.Vectors) {
			t.Fatalf("%q: codec %+v, encoding/json %+v", body, got, want)
		}
	}
}

// checkSearchResponses does the same for both reply decoders, whose one
// departure from json.Unmarshal is refusing ids and distances of different
// shapes.
func checkSearchResponses(t *testing.T, body []byte) {
	var want SearchResponse
	wantErr := json.Unmarshal(body, &want)
	if wantErr == nil && len(want.IDs) != len(want.Distances) {
		wantErr = errReplyShape
	}
	got := SearchResponse{IDs: []int{9, 9}, Distances: []float32{9}, IDOffset: 9, K: 9, Scanned: 9, Elapsed: "9"}
	gotErr := DecodeSearchResponse(&got, body)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: codec error %v, want %v", body, gotErr, wantErr)
	}
	if wantErr == nil && (got.IDOffset != want.IDOffset || got.K != want.K || got.Scanned != want.Scanned || got.Elapsed != want.Elapsed ||
		!slices.Equal(got.IDs, want.IDs) || !sameFloatBits(got.Distances, want.Distances)) {
		t.Fatalf("%q: codec %+v, encoding/json %+v", body, got, want)
	}

	var wantB BatchSearchResponse
	wantErr = json.Unmarshal(body, &wantB)
	if wantErr == nil && len(wantB.IDs) != len(wantB.Distances) {
		wantErr = errReplyShape
	}
	for i := 0; wantErr == nil && i < len(wantB.IDs); i++ {
		if len(wantB.IDs[i]) != len(wantB.Distances[i]) {
			wantErr = errReplyShape
		}
	}
	var gotB BatchSearchResponse
	var arena Arena
	for pass := 0; pass < 2; pass++ {
		gotErr = DecodeBatchSearchResponse(&gotB, body, &arena)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: batch codec error %v, want %v", body, gotErr, wantErr)
		}
		if wantErr == nil && (gotB.IDOffset != wantB.IDOffset || gotB.K != wantB.K || gotB.Elapsed != wantB.Elapsed ||
			!sameIntRows(gotB.IDs, wantB.IDs) || !sameFloatRows(gotB.Distances, wantB.Distances)) {
			t.Fatalf("%q: batch codec %+v, encoding/json %+v", body, gotB, wantB)
		}
	}
}

func FuzzSearchRequestDecode(f *testing.F) {
	for _, s := range requestSeeds {
		f.Add([]byte(s))
	}
	f.Add(mustMarshal(f, SearchRequest{Vector: wireVector(128), K: 10, Probes: 2}))
	f.Fuzz(checkSearchRequest)
}

func FuzzBatchSearchRequestDecode(f *testing.F) {
	for _, s := range requestSeeds {
		f.Add([]byte(s))
	}
	f.Add(mustMarshal(f, BatchSearchRequest{Vectors: [][]float32{wireVector(16), wireVector(16)}, K: 10}))
	f.Fuzz(checkBatchSearchRequest)
}

func FuzzSearchResponseDecode(f *testing.F) {
	for _, s := range responseSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(checkSearchResponses)
}

// TestDecodeTakesTheFastPath: the differential targets above cannot tell the
// scanner from its fallback, so pin that the bodies encoding/json itself
// writes, and their white-space variants, are canonical — and that the
// shapes the design hands to encoding/json are not.
func TestDecodeTakesTheFastPath(t *testing.T) {
	for _, body := range []string{
		string(mustMarshal(t, SearchRequest{Vector: wireVector(128), K: 10, Probes: 2, RerankK: -1})),
		requestSeeds[0], requestSeeds[2], requestSeeds[3], `{}`, `{"k":123456789012345678}`,
	} {
		if !scanSearchRequest(&SearchRequest{}, []byte(body)) {
			t.Errorf("not canonical: %s", body)
		}
	}
	for _, body := range []string{
		`{"vector":[1e39],"k":3}`, `{"Vector":[1],"k":1}`, `{"vector":null}`, `{"k":1,"k":1}`,
		`{"k":1,"x":1}`, `{"k":1.0}`, `{"k":1} x`, `{"k":1234567890123456789}`, `{"vector":[1,]}`, ``,
	} {
		if scanSearchRequest(&SearchRequest{}, []byte(body)) {
			t.Errorf("canonical, want it left to encoding/json: %s", body)
		}
	}
	var a Arena
	if body := mustMarshal(t, BatchSearchRequest{Vectors: [][]float32{wireVector(8), {}, wireVector(3)}, K: 1}); !scanBatchSearchRequest(&BatchSearchRequest{}, body, &a) {
		t.Errorf("not canonical: %s", body)
	}
	if body := mustMarshal(t, SearchResponse{IDs: []int{1}, Distances: []float32{1e-9}, K: 10, Elapsed: "3.5µs"}); !scanSearchResponse(&SearchResponse{}, body) {
		t.Errorf("not canonical: %s", body)
	}
	if body := mustMarshal(t, BatchSearchResponse{IDs: [][]int{{1}, {}}, Distances: [][]float32{{1e22}, {}}, K: 1, Elapsed: "1m3s"}); !scanBatchSearchResponse(&BatchSearchResponse{}, body, &a) {
		t.Errorf("not canonical: %s", body)
	}
}

// TestAppendResponseMatchesMarshal: the encoders write json.Marshal's bytes.
func TestAppendResponseMatchesMarshal(t *testing.T) {
	edge := []float32{0, float32(math.Copysign(0, -1)), 1, -1, 0.1, 1e-6, 9.999999e-7, 1e-7, 1.5e-9, 1e-10, 1e-45,
		1e20, 9.999999e20, 1e21, 1.0000001e21, 3.4028235e38, -3.4028235e38, 123456.79, 1.17549435e-38, 16777216, 0.333333343}
	singles := []SearchResponse{
		{},
		{IDs: []int{}, Distances: []float32{}},
		{IDs: nil, Distances: []float32{}},
		{IDs: []int{5, -3, 0, math.MaxInt64, math.MinInt64}, Distances: []float32{0, 1.5, 2, 3, 4}, IDOffset: -8, K: math.MaxInt64, Scanned: 12, Elapsed: "467.25µs"},
		{IDs: make([]int, len(edge)), Distances: edge, Elapsed: "1h2m3.5s"},
		{Elapsed: "quote\" slash\\ <tag> &   \x7f tab\t \xff bad"},
		{Elapsed: "€ and ‧ share \xe2 with the separators"},
	}
	for _, r := range singles {
		want := mustMarshal(t, r)
		got, err := AppendSearchResponse([]byte("prefix"), &r)
		if err != nil || !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Errorf("AppendSearchResponse:\n got %s (%v)\nwant prefix%s", got, err, want)
		}
	}
	batches := []BatchSearchResponse{
		{},
		{IDs: [][]int{}, Distances: [][]float32{}},
		{IDs: [][]int{nil, {}, {1, -2}}, Distances: [][]float32{{}, nil, {0.5, 1e-7}}, IDOffset: 4000, K: 3, Elapsed: "2.1ms"},
		{IDs: [][]int{make([]int, len(edge))}, Distances: [][]float32{edge}, Elapsed: "µ"},
	}
	for _, r := range batches {
		want := mustMarshal(t, r)
		got, err := AppendBatchSearchResponse(nil, &r)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("AppendBatchSearchResponse:\n got %s (%v)\nwant %s", got, err, want)
		}
	}
	// Rows built through Reset/AddRow are never null, like made slices.
	var built BatchSearchResponse
	var arena Arena
	built.Reset(&arena)
	if got, _ := AppendBatchSearchResponse(nil, &built); string(got) != `{"ids":[],"distances":[],"id_offset":0,"k":0,"elapsed":""}` {
		t.Errorf("no rows: %s", got)
	}
	built.AddRow(&arena, 0)
	ids, ds := built.AddRow(&arena, 2)
	ids[0], ids[1], ds[0], ds[1] = 7, 8, 0.5, 1
	if got, _ := AppendBatchSearchResponse(nil, &built); string(got) != `{"ids":[[],[7,8]],"distances":[[],[0.5,1]],"id_offset":0,"k":0,"elapsed":""}` {
		t.Errorf("built rows: %s", got)
	}
	// Random bit patterns, and json.Marshal's refusal of non-finite values.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		f := math.Float32frombits(rng.Uint32())
		r := SearchResponse{Distances: []float32{f}}
		want, wantErr := json.Marshal(r)
		got, err := AppendSearchResponse(nil, &r)
		if (err == nil) != (wantErr == nil) || (err == nil && !bytes.Equal(got, want)) {
			t.Fatalf("distance bits %#x: got %s (%v), want %s (%v)", math.Float32bits(f), got, err, want, wantErr)
		}
	}
	inf := float32(math.Inf(1))
	if _, err := AppendBatchSearchResponse(nil, &BatchSearchResponse{Distances: [][]float32{{inf}}}); err == nil {
		t.Error("AppendBatchSearchResponse encoded +Inf")
	}
}

// TestSeedsDecodeLikeEncodingJSON runs the fuzz seeds as a table under plain
// `go test`, each also as a body of the other three messages.
func TestSeedsDecodeLikeEncodingJSON(t *testing.T) {
	for _, s := range slices.Concat(requestSeeds, responseSeeds) {
		checkSearchRequest(t, []byte(s))
		checkBatchSearchRequest(t, []byte(s))
		checkSearchResponses(t, []byte(s))
	}
}

// TestWireCodecAllocations: decoding a request into a reused struct and
// encoding a reply into a reused buffer allocate nothing once warm; decoding
// a reply allocates its elapsed string and nothing else.
func TestWireCodecAllocations(t *testing.T) {
	vec := wireVector(128)
	single := mustMarshal(t, SearchRequest{Vector: vec, K: 10, Probes: 2})
	rows := make([][]float32, 64)
	for i := range rows {
		rows[i] = vec
	}
	batch := mustMarshal(t, BatchSearchRequest{Vectors: rows, K: 10, Probes: 2})
	resp := SearchResponse{IDs: make([]int, 10), Distances: vec[:10], IDOffset: 4000, Scanned: 1017, Elapsed: "31.4µs"}
	var bresp BatchSearchResponse
	var build Arena
	bresp.Reset(&build)
	for range rows {
		_, ds := bresp.AddRow(&build, 10)
		copy(ds, vec)
	}
	bresp.Elapsed = "1.9ms"
	batchReply := mustMarshal(t, bresp)

	var req SearchRequest
	var breq BatchSearchRequest
	var gotB BatchSearchResponse
	var arena Arena
	var out []byte
	var got SearchResponse
	reply := mustMarshal(t, resp)
	for name, fn := range map[string]func(){
		"decode request": func() {
			if err := decodeSearchRequest(&req, single); err != nil || len(req.Vector) != 128 {
				t.Fatal(err, len(req.Vector))
			}
		},
		"decode batch request": func() {
			if err := decodeBatchSearchRequest(&breq, batch, &arena); err != nil || len(breq.Vectors) != 64 {
				t.Fatal(err, len(breq.Vectors))
			}
		},
		"decode response (1 alloc)": func() {
			if err := DecodeSearchResponse(&got, reply); err != nil || len(got.IDs) != 10 {
				t.Fatal(err, len(got.IDs))
			}
		},
		"decode batch response (1 alloc)": func() {
			if err := DecodeBatchSearchResponse(&gotB, batchReply, &arena); err != nil || len(gotB.IDs) != 64 {
				t.Fatal(err, len(gotB.IDs))
			}
		},
		"append response":       func() { out, _ = AppendSearchResponse(out[:0], &resp) },
		"append batch response": func() { out, _ = AppendBatchSearchResponse(out[:0], &bresp) },
	} {
		want := 0.0
		if strings.HasSuffix(name, "(1 alloc)") {
			want = 1
		}
		if n := testing.AllocsPerRun(50, fn); n != want {
			t.Errorf("%s: %v allocs/op, want %v", name, n, want)
		}
	}
}

// TestScratchPoolingCap: a scratch that one huge body grew is not kept.
func TestScratchPoolingCap(t *testing.T) {
	sc := new(Scratch)
	body := mustMarshal(t, SearchRequest{Vector: wireVector(128), K: 10})
	var err error
	if sc.Body, err = ReadBody(sc.Body[:0], bytes.NewReader(body), int64(len(body))); err != nil || !bytes.Equal(sc.Body, body) {
		t.Fatalf("ReadBody: %v", err)
	}
	if err := decodeSearchRequest(&sc.Req, sc.Body); err != nil {
		t.Fatal(err)
	}
	if sc.retained() > maxPooledBytes {
		t.Fatalf("an ordinary request retains %d bytes", sc.retained())
	}
	big := strings.Repeat(" ", 2*maxPooledBytes)
	if sc.Body, err = ReadBody(sc.Body[:0], strings.NewReader(big), -1); err != nil || len(sc.Body) != len(big) {
		t.Fatalf("ReadBody without a size hint: %v, %d bytes", err, len(sc.Body))
	}
	if sc.retained() <= maxPooledBytes {
		t.Fatalf("a %d-byte body retains only %d bytes", len(big), sc.retained())
	}
	if _, err := ReadBody(nil, strings.NewReader(strings.Repeat(" ", MaxBodyBytes+1)), -1); err == nil {
		t.Fatal("ReadBody accepted more than MaxBodyBytes")
	}
}

// Per-message microbenchmarks at dim 128, each beside the encoding/json call
// it replaced.

func BenchmarkDecodeSearchRequest(b *testing.B) {
	body := mustMarshal(b, SearchRequest{Vector: wireVector(128), K: 10, Probes: 2})
	b.Run("codec", func(b *testing.B) {
		var req SearchRequest
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			if err := decodeSearchRequest(&req, body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			var req SearchRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAppendSearchResponse(b *testing.B) {
	resp := SearchResponse{IDs: make([]int, 10), Distances: wireVector(10), IDOffset: 4000, Scanned: 1017, Elapsed: "31.4µs"}
	for i := range resp.IDs {
		resp.IDs[i] = 1000 + 37*i
	}
	b.Run("codec", func(b *testing.B) {
		var out []byte
		b.ReportAllocs()
		for b.Loop() {
			out, _ = AppendSearchResponse(out[:0], &resp)
		}
		b.SetBytes(int64(len(out)))
	})
	b.Run("encoding-json", func(b *testing.B) {
		var out bytes.Buffer
		b.ReportAllocs()
		for b.Loop() {
			out.Reset()
			if err := json.NewEncoder(&out).Encode(resp); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(out.Len()))
	})
}
