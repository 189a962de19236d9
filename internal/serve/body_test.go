package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	parclass "repro"
)

// bulkBody is a POST /v1/predict values_rows body shaped like the
// serve_bulk benchmark's: rows F7-A32 rows, continuous values formatted as
// strconv 'g' strings.
func bulkBody(t testing.TB, rows int) []byte {
	t.Helper()
	ds, err := parclass.Synthetic(parclass.SyntheticConfig{
		Function: 7, Attrs: 32, Tuples: rows, Seed: 3, Perturbation: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl := ds.Table()
	vrows := make([][]string, rows)
	for i := range vrows {
		vrows[i] = tupleValues(tbl.Schema(), tbl.Row(i))
	}
	raw, err := json.Marshal(map[string]any{"values_rows": vrows})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// bodySeeds are the fuzz seeds both request targets start from: request
// shapes of both routes, escapes, surrogates, invalid UTF-8, nulls,
// repeated and case-variant keys, unknown values, type and syntax errors,
// nesting at encoding/json's depth limit, and trailing data.
var bodySeeds = []string{
	`{"values_rows":[["1","2"],["3","4"]]}`,
	`{"model":"default","values":["25","e2"],"no_batch":true}`,
	`{"row":{"age":"25","car":"make3"}}`,
	`{"rows":[{"age":"25"},{"age":"30"}],"no_batch":false}`,
	`{"values":["1","2"],"class":"GroupA"}`,
	`{"model":"m","rows":[{"values":["1"],"class":"A"},null,{"class":"B"}],"rows":[{"values":[null]},{"extra":1}]}`,
	`{"rows":[{"values":["a"],"values":["b","c"],"CLASS":"x"}]}`,
	`{"rows":[]}`,
	// Escapes, surrogates, UTF-8.
	`{"values":["a\"b\\c\/d\b\f\n\r\t","\u00e9\u4e2d\u0000"]}`,
	`{"values":["\ud83d\ude00","\ud83d","\ude00","\ud83d\u0041","\ud83d\ud83d\ude00","\uD83D\uDE00x"]}`,
	"{\"values\":[\"\xff\xfe\",\"a\xc3\",\"\xed\xa0\x80\",\"\xef\xbf\xbd\"],\"model\":\"\xe6\xa8\xa1\"}",
	"{\"x\xff\":\"\xff\",\"values\":[\"ok\"]}",
	`{"values":["\u0022\u005c"],"class":"\/"}`,
	// Nulls.
	`null`,
	" \t\r\nnull\n",
	`{"values":null,"values_rows":null,"row":null,"rows":null,"model":null,"no_batch":null,"class":null}`,
	`{"values":[null,"1"],"values_rows":[null,["1",null]],"row":{"a":null},"rows":[null,{"a":"1"}]}`,
	`{"row":{"a":"1"},"row":null}`,
	// Repeated keys: the later value decodes over the earlier one.
	`{"values":["a","b","c"],"values":["x"],"values":[null,null,null,null]}`,
	`{"values":["a","b"],"values":[],"values":[null]}`,
	`{"row":{"a":"1"},"row":{"b":"2","a":"3"}}`,
	`{"rows":[{"a":"1"},{"b":"2"}],"rows":[{"c":"3"}],"rows":[null,{"d":"4"}]}`,
	`{"values_rows":[["a","b"],["c"]],"values_rows":[[null,null,null]],"values_rows":[[],null,[null]]}`,
	`{"model":"a","MODEL":"b","no_batch":true,"no_batch":null}`,
	// Case variants: ſ (U+017F) folds to s, K (U+212A) to k.
	`{"VALUES":["1"],"Values_Rows":[["1"]],"ROW":{},"Rows":[],"No_Batch":true,"Model":"m","Class":"c"}`,
	`{"valueſ":["1"],"claſſ":"x","rowſ":[{}],"\u212Aey":"x","value\u017f_rows":[["2"]]}`,
	`{"\u0076alues":["1"],"mod\u0065l":"x","modeL":"y","m\u00f6del":"z"}`,
	// Unknown keys are validated and skipped.
	`{"level_sync":"sideways","x":{"a":[1,2.5e-3,-0,true,false,null,{"b":[]},""]},"values":["1"]}`,
	`{"x":-0.0e+10,"y":1E5,"z":0.5e-0,"values":["1"]}`,
	`{"x":01}`, `{"x":1.}`, `{"x":.5}`, `{"x":-}`, `{"x":1e}`, `{"x":+1}`, `{"x":0x1}`,
	// Type errors.
	`{"values":"1"}`, `{"values":[1]}`, `{"values":[["1"]]}`, `{"no_batch":"true"}`,
	`{"no_batch":1}`, `{"model":1}`, `{"model":{}}`, `{"row":[]}`, `{"row":{"a":1}}`,
	`{"rows":{}}`, `{"rows":[[]]}`, `{"values_rows":["1"]}`, `{"values_rows":{}}`,
	`{"rows":["x"]}`, `{"class":true}`, `[]`, `"x"`, `1`, `true`, `false`,
	// Syntax errors.
	`{"values":["1",]}`, `{,}`, `{"a" 1}`, `{"a":1,}`, `{'a':1}`, "{\"values\":[\"\x01\"]}",
	`{"values":["\x"]}`, `{"values":["\u12"]}`, `{"values":["\u12g4"]}`, ``, "   ", `{`,
	`nul`, `nulll`, `{"values":[tru]}`, `{"a":[}`, `{"a":{]}`, `{"a"}`, `{"a":}`, `{1:2}`,
	"{\"a\":\"\x7f\"}", `{"values":["1"] "model":"x"}`, `{"values":["1"]`,
	// Trailing data.
	`{}{}`, `{} x`, "{}  \n", `null null`, `{"values":["1"]}]`, `{"junk":1}{"junk":1}`, `{}nul`,
	// encoding/json's nesting limit is 10000 levels, the document's own
	// object included.
	`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
	`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	`{"x":` + strings.Repeat(`{"a":`, 9999) + `1` + strings.Repeat("}", 9999) + `}`,
}

// addBodySeeds adds every seed, each short seed's every prefix (a
// truncated body), and trailing garbage after each seed.
func addBodySeeds(f *testing.F) {
	seeds := append([]string(nil), bodySeeds...)
	seeds = append(seeds, string(bulkBody(f, 4)), string(bulkBody(f, 64)))
	for _, s := range seeds {
		f.Add([]byte(s))
		f.Add([]byte(s + `x`))
		f.Add([]byte(s + ` {}`))
		if len(s) <= 160 {
			for n := 0; n < len(s); n++ {
				f.Add([]byte(s[:n]))
			}
		} else {
			f.Add([]byte(s[:len(s)/2]))
			f.Add([]byte(s[:len(s)-1]))
		}
	}
}

// checkParity holds decode to encoding/json's semantics on one body: the
// oracle is Decoder.Decode followed by a second Decode that must return
// io.EOF. Both must accept or both reject, and an accepted body must
// decode to the same struct.
func checkParity[T any](t *testing.T, body []byte, decode func(string, *T) error) {
	var want T
	dec := json.NewDecoder(bytes.NewReader(body))
	wantErr := dec.Decode(&want)
	if wantErr == nil && dec.Decode(new(json.RawMessage)) != io.EOF {
		wantErr = errTrailing
	}
	var got T
	err := decode(string(body), &got)
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("body %q: tokenizer error %v, encoding/json error %v", body, err, wantErr)
	case err == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("body %q:\ntokenizer     %#v\nencoding/json %#v", body, got, want)
	}
}

func FuzzPredictRequest(f *testing.F) {
	addBodySeeds(f)
	f.Fuzz(func(t *testing.T, body []byte) { checkParity(t, body, decodePredict) })
}

func FuzzIngestRequest(f *testing.F) {
	addBodySeeds(f)
	f.Fuzz(func(t *testing.T, body []byte) { checkParity(t, body, decodeIngest) })
}

// reusableBody is a request body the allocation gate rewinds between runs.
type reusableBody struct{ *bytes.Reader }

func (reusableBody) Close() error { return nil }

// TestRequestDecodeAllocationBudget gates the bulk predict decode: reading
// a values_rows body and decoding it costs a fixed handful of allocations
// — the body buffer and its string, the two arenas, the body cap's reader
// — whatever the row count.
func TestRequestDecodeAllocationBudget(t *testing.T) {
	const budget = 6
	s := New("")
	w := httptest.NewRecorder()
	counts := map[int]float64{}
	for _, rows := range []int{64, 512} {
		raw := bulkBody(t, rows)
		rd := bytes.NewReader(raw)
		r := httptest.NewRequest("POST", "/v1/predict", nil)
		r.Body, r.ContentLength = reusableBody{rd}, int64(len(raw))
		counts[rows] = testing.AllocsPerRun(50, func() {
			rd.Reset(raw)
			body, ok := s.readBody(w, r, &s.met.predict)
			var req predictRequest
			if !ok || decodePredict(body, &req) != nil || len(req.ValuesRows) != rows {
				t.Fatalf("%d rows: body not decoded", rows)
			}
		})
		if counts[rows] > budget {
			t.Fatalf("%d rows: reading and decoding allocates %.1f times, budget %d", rows, counts[rows], budget)
		}
	}
	if counts[64] != counts[512] {
		t.Fatalf("allocations grow with rows: %.1f at 64, %.1f at 512", counts[64], counts[512])
	}
}

// BenchmarkDecodePredictRequest decodes a 64-row x 32-attribute values_rows
// body with the tokenizer and, as the reference, with encoding/json the way
// the handler used to.
func BenchmarkDecodePredictRequest(b *testing.B) {
	raw := bulkBody(b, 64)
	b.Run("tokenizer", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(raw)))
		for b.Loop() {
			var req predictRequest
			if err := decodePredict(string(raw), &req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(raw)))
		for b.Loop() {
			var req predictRequest
			dec := json.NewDecoder(bytes.NewReader(raw))
			if err := dec.Decode(&req); err != nil {
				b.Fatal(err)
			}
			if dec.Decode(new(json.RawMessage)) != io.EOF {
				b.Fatal("trailing data")
			}
		}
	})
}

// TestDecodeErrorsName400Causes spot-checks that rejected bodies say why.
func TestDecodeErrorsName400Causes(t *testing.T) {
	for body, want := range map[string]string{
		`{"values":["1"]} {}`:     "trailing data after JSON body",
		`{"values":[1]}`:          "cannot decode number into string",
		`{"values":["1"]`:         "unexpected end of JSON input",
		`{"values":["1",]}`:       "looking for beginning of value",
		"{\"values\":[\"\x01\"]}": "in string literal",
	} {
		var req predictRequest
		err := decodePredict(body, &req)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%q: error %v, want it to mention %q", body, err, want)
		}
	}
}
