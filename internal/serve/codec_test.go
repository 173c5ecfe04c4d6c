package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"testing"

	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
	"github.com/crrlab/crr/internal/wire"
)

// Codec-layer tests: the binary columnar format must be a pure transport
// swap — same requests, bitwise-identical answers — and negotiation must
// route each direction independently (Content-Type in, Accept out).

// postRaw posts body with the given headers and returns status, response
// content type, and body.
func postRaw(t testing.TB, url, contentType, accept string, body []byte) (int, string, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), out
}

// encodeWireBatch renders rel as a binary columnar request body.
func encodeWireBatch(t testing.TB, rel *dataset.Relation, opts map[string]string, chunk int) []byte {
	t.Helper()
	wb := batchFromColumnSet(dataset.NewColumnSet(rel))
	wb.Options = opts
	var buf bytes.Buffer
	if err := wire.EncodeBatch(&buf, wb, wire.EncodeOptions{ChunkRows: chunk}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// evalSpec is one evaluation generator with the regression signature and
// bias bound the experiments use for it. (This package cannot import
// internal/experiments: that package depends on internal/verify, which
// depends on serve.)
type evalSpec struct {
	Name      string
	Gen       func(n int) *dataset.Relation
	XAttrs    []int
	YAttr     int
	CondAttrs []int
	RhoM      float64
}

// evalSpecs returns the five evaluation generators.
func evalSpecs() []evalSpec {
	return []evalSpec{
		{"Tax", func(n int) *dataset.Relation {
			c := dataset.DefaultTaxConfig()
			c.Rows = n
			return dataset.GenerateTax(c)
		}, []int{0}, 4, []int{1, 2}, 60},
		{"Electricity", func(n int) *dataset.Relation {
			c := dataset.DefaultElectricityConfig()
			c.Rows = n
			return dataset.GenerateElectricity(c)
		}, []int{0}, 1, []int{0}, 0.5},
		{"Abalone", func(n int) *dataset.Relation {
			c := dataset.DefaultAbaloneConfig()
			c.Rows = n
			return dataset.GenerateAbalone(c)
		}, []int{1}, 8, []int{0, 1}, 0.5},
		{"AirQuality", func(n int) *dataset.Relation {
			c := dataset.DefaultAirQualityConfig()
			c.Rows = n
			return dataset.GenerateAirQuality(c)
		}, []int{0}, 1, []int{0}, 1},
		{"BirdMap", func(n int) *dataset.Relation {
			c := dataset.DefaultBirdMapConfig()
			c.Rows = n
			return dataset.GenerateBirdMap(c)
		}, []int{3}, 0, []int{3, 2}, 1},
	}
}

// specRules mines a small rule set for one evaluation dataset.
func specRules(t *testing.T, spec evalSpec, rows int) *core.RuleSet {
	t.Helper()
	rel := spec.Gen(rows)
	preds := predicate.Generate(rel, spec.CondAttrs, predicate.GeneratorConfig{
		Kind: predicate.Binary, Size: 32,
	})
	res, err := core.Discover(context.Background(), rel, core.WithConfig(core.DiscoverConfig{
		XAttrs:  spec.XAttrs,
		YAttr:   spec.YAttr,
		RhoM:    spec.RhoM,
		Preds:   preds,
		Trainer: regress.LinearTrainer{},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rules.NumRules() == 0 {
		t.Fatal("no rules discovered")
	}
	return res.Rules
}

// TestBinaryPredictParity: across all five evaluation generators, with
// injected nulls and multi-frame encoding, /v1/predict answers the binary
// columnar request bitwise-identically to the JSON request and to the
// in-process columnar classifier — explain metadata included.
func TestBinaryPredictParity(t *testing.T) {
	for _, spec := range evalSpecs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			rules := specRules(t, spec, 500)
			_, ts := newTestServer(t, Config{}, rules)

			rng := rand.New(rand.NewSource(41))
			check := spec.Gen(300).Clone()
			check.MaskMissing(spec.YAttr, 0.05, rng)

			wantP, wantC, wantIDs := rules.PredictViewExplained(dataset.NewColumnSet(check).View())

			// JSON request.
			objs := make([]map[string]any, check.Len())
			for i, tp := range check.Tuples {
				objs[i] = encodeTuple(check.Schema, tp)
			}
			jbody, err := json.Marshal(map[string]any{"tuples": objs})
			if err != nil {
				t.Fatal(err)
			}
			status, _, jout := postRaw(t, ts.URL+"/v1/predict?explain=1", "application/json", "", jbody)
			if status != http.StatusOK {
				t.Fatalf("json status %d: %s", status, jout)
			}
			var jresp struct {
				Predictions []struct {
					Value   float64 `json:"value"`
					Covered bool    `json:"covered"`
					Rule    *int    `json:"rule"`
				} `json:"predictions"`
			}
			if err := json.Unmarshal(jout, &jresp); err != nil {
				t.Fatal(err)
			}

			// Binary request, chunked to force multi-frame reassembly.
			status, ct, bout := postRaw(t, ts.URL+"/v1/predict?explain=1",
				wire.ContentType, "", encodeWireBatch(t, check, nil, 64))
			if status != http.StatusOK {
				t.Fatalf("binary status %d: %s", status, bout)
			}
			if ct != wire.ContentType {
				t.Fatalf("binary response content type %q", ct)
			}
			bresp, err := wire.DecodePredictions(bytes.NewReader(bout), wire.DecodeLimits{})
			if err != nil {
				t.Fatal(err)
			}

			if len(jresp.Predictions) != check.Len() || len(bresp.Values) != check.Len() {
				t.Fatalf("lengths json=%d binary=%d want %d", len(jresp.Predictions), len(bresp.Values), check.Len())
			}
			for i := range wantP {
				jp := jresp.Predictions[i]
				if math.Float64bits(jp.Value) != math.Float64bits(wantP[i]) || jp.Covered != wantC[i] {
					t.Fatalf("tuple %d: json (%v,%v), in-process (%v,%v)", i, jp.Value, jp.Covered, wantP[i], wantC[i])
				}
				if math.Float64bits(bresp.Values[i]) != math.Float64bits(wantP[i]) || bresp.Covered[i] != wantC[i] {
					t.Fatalf("tuple %d: binary (%v,%v), in-process (%v,%v)", i, bresp.Values[i], bresp.Covered[i], wantP[i], wantC[i])
				}
				jid := -1
				if jp.Rule != nil {
					jid = *jp.Rule
				}
				if jid != wantIDs[i] || bresp.RuleIDs[i] != wantIDs[i] {
					t.Fatalf("tuple %d: rule ids json=%d binary=%d want %d", i, jid, bresp.RuleIDs[i], wantIDs[i])
				}
			}
		})
	}
}

// TestBinaryCheckParity: /v1/check over the binary codec returns exactly
// the JSON violations, repairs included.
func TestBinaryCheckParity(t *testing.T) {
	rel, rules := taxRules(t, 800)
	_, ts := newTestServer(t, Config{}, rules)

	check := rel.Clone()
	ytax := rel.Schema.MustIndex("Tax")
	for i, tp := range check.Tuples {
		if i%5 == 0 {
			nt := tp.Clone()
			nt[ytax] = dataset.Num(tp[ytax].Num + 500)
			check.Tuples[i] = nt
		}
	}

	objs := make([]map[string]any, check.Len())
	for i, tp := range check.Tuples {
		objs[i] = encodeTuple(check.Schema, tp)
	}
	jbody, _ := json.Marshal(map[string]any{"tuples": objs})
	status, _, jout := postRaw(t, ts.URL+"/v1/check", "application/json", "", jbody)
	if status != http.StatusOK {
		t.Fatalf("json status %d: %s", status, jout)
	}
	var jresp struct {
		Checked    int `json:"checked"`
		Violations []struct {
			Tuple     int      `json:"tuple"`
			Rule      int      `json:"rule"`
			Observed  float64  `json:"observed"`
			Predicted float64  `json:"predicted"`
			Excess    float64  `json:"excess"`
			Repair    *float64 `json:"repair"`
		} `json:"violations"`
	}
	if err := json.Unmarshal(jout, &jresp); err != nil {
		t.Fatal(err)
	}
	if len(jresp.Violations) == 0 {
		t.Fatal("no violations; parity check vacuous")
	}

	status, _, bout := postRaw(t, ts.URL+"/v1/check", wire.ContentType, "", encodeWireBatch(t, check, nil, 100))
	if status != http.StatusOK {
		t.Fatalf("binary status %d: %s", status, bout)
	}
	brep, err := wire.DecodeCheck(bytes.NewReader(bout), wire.DecodeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if brep.Checked != jresp.Checked || len(brep.Violations) != len(jresp.Violations) {
		t.Fatalf("binary %d/%d, json %d/%d", brep.Checked, len(brep.Violations), jresp.Checked, len(jresp.Violations))
	}
	for i, jv := range jresp.Violations {
		bv := brep.Violations[i]
		if bv.Tuple != jv.Tuple || bv.Rule != jv.Rule ||
			math.Float64bits(bv.Observed) != math.Float64bits(jv.Observed) ||
			math.Float64bits(bv.Predicted) != math.Float64bits(jv.Predicted) ||
			math.Float64bits(bv.Excess) != math.Float64bits(jv.Excess) {
			t.Fatalf("violation %d: binary %+v, json %+v", i, bv, jv)
		}
		switch {
		case (bv.Repair == nil) != (jv.Repair == nil):
			t.Fatalf("violation %d: repair presence differs", i)
		case bv.Repair != nil && math.Float64bits(*bv.Repair) != math.Float64bits(*jv.Repair):
			t.Fatalf("violation %d: repair %v, json %v", i, *bv.Repair, *jv.Repair)
		}
	}
}

// TestBinaryImputeParity: /v1/impute fills the same cells with the same
// values under both codecs, and the binary response batch materializes to
// the JSON tuples.
func TestBinaryImputeParity(t *testing.T) {
	rel, rules := taxRules(t, 800)
	_, ts := newTestServer(t, Config{}, rules)

	holey := rel.Clone()
	holey.Tuples = holey.Tuples[:100]
	ytax := rel.Schema.MustIndex("Tax")
	for i := range holey.Tuples {
		if i%3 == 0 {
			nt := holey.Tuples[i].Clone()
			nt[ytax] = dataset.Null()
			holey.Tuples[i] = nt
		}
	}

	objs := make([]map[string]any, holey.Len())
	for i, tp := range holey.Tuples {
		objs[i] = encodeTuple(holey.Schema, tp)
	}
	jbody, _ := json.Marshal(map[string]any{"tuples": objs, "use_fallback": true})
	status, _, jout := postRaw(t, ts.URL+"/v1/impute", "application/json", "", jbody)
	if status != http.StatusOK {
		t.Fatalf("json status %d: %s", status, jout)
	}
	var jresp struct {
		Column  string           `json:"column"`
		Imputed int              `json:"imputed"`
		Failed  int              `json:"failed"`
		Tuples  []map[string]any `json:"tuples"`
	}
	if err := json.Unmarshal(jout, &jresp); err != nil {
		t.Fatal(err)
	}
	if jresp.Imputed == 0 {
		t.Fatal("nothing imputed; parity check vacuous")
	}

	status, _, bout := postRaw(t, ts.URL+"/v1/impute", wire.ContentType, "",
		encodeWireBatch(t, holey, map[string]string{wire.OptFallback: "1"}, 0))
	if status != http.StatusOK {
		t.Fatalf("binary status %d: %s", status, bout)
	}
	brep, err := wire.DecodeImpute(bytes.NewReader(bout), wire.DecodeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if brep.Column != jresp.Column || brep.Imputed != jresp.Imputed || brep.Failed != jresp.Failed {
		t.Fatalf("binary %s/%d/%d, json %s/%d/%d",
			brep.Column, brep.Imputed, brep.Failed, jresp.Column, jresp.Imputed, jresp.Failed)
	}
	// Rebuild tuples from the binary batch and compare against JSON's.
	cols := make([]dataset.AssembledColumn, len(brep.Batch.Cols))
	for i, c := range brep.Batch.Cols {
		cols[i] = dataset.AssembledColumn{Floats: c.Floats, Codes: c.Codes, Dict: c.Dict, Nulls: c.Nulls}
	}
	cs, err := dataset.AssembleColumnSet(holey.Schema, brep.Batch.Rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	filled := cs.Materialize()
	for i, obj := range jresp.Tuples {
		got := encodeTuple(holey.Schema, filled.Tuples[i])
		jb, _ := json.Marshal(obj)
		gb, _ := json.Marshal(got)
		if !bytes.Equal(jb, gb) {
			t.Fatalf("tuple %d: binary %s, json %s", i, gb, jb)
		}
	}
}

// TestNegotiation: Content-Type picks the decoder, Accept picks the
// encoder, and the two vary independently.
func TestNegotiation(t *testing.T) {
	rel, rules := taxRules(t, 500)
	_, ts := newTestServer(t, Config{}, rules)

	jbody, _ := json.Marshal(map[string]any{"tuple": encodeTuple(rel.Schema, rel.Tuples[0])})
	bbody := encodeWireBatch(t, &dataset.Relation{Schema: rel.Schema, Tuples: rel.Tuples[:1]}, nil, 0)

	cases := []struct {
		name, ct, accept string
		body             []byte
		wantCT           string
	}{
		{"json to json", "application/json", "", jbody, "application/json"},
		{"json to binary", "application/json", wire.ContentType, jbody, wire.ContentType},
		{"binary to binary", wire.ContentType, "", bbody, wire.ContentType},
		{"binary to json", wire.ContentType, "application/json", bbody, "application/json"},
		{"default is json", "", "", jbody, "application/json"},
		{"unknown accept mirrors request", "application/json", "text/html", jbody, "application/json"},
	}
	for _, c := range cases {
		status, ct, out := postRaw(t, ts.URL+"/v1/predict", c.ct, c.accept, c.body)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.name, status, out)
		}
		if ct != c.wantCT {
			t.Fatalf("%s: content type %q, want %q", c.name, ct, c.wantCT)
		}
	}
}

// TestNegotiationErrors: unknown Content-Type is a 415 with a stable code;
// garbage binary bodies are a 400 — and the error envelope is always JSON,
// whatever format was negotiated.
func TestNegotiationErrors(t *testing.T) {
	_, rules := taxRules(t, 500)
	_, ts := newTestServer(t, Config{}, rules)

	type envelope struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	cases := []struct {
		name, ct   string
		body       []byte
		wantStatus int
		wantCode   string
	}{
		{"unknown content type", "application/xml", []byte("<x/>"), http.StatusUnsupportedMediaType, CodeUnsupportedMedia},
		{"binary garbage", wire.ContentType, []byte("not a crr stream"), http.StatusBadRequest, CodeInvalidArgument},
		{"binary truncated", wire.ContentType, encodeWireBatch(t, func() *dataset.Relation {
			rel, _ := taxRules(t, 10)
			return rel
		}(), nil, 0)[:20], http.StatusBadRequest, CodeInvalidArgument},
		{"binary empty batch", wire.ContentType, func() []byte {
			rel, _ := taxRules(t, 10)
			empty := &dataset.Relation{Schema: rel.Schema}
			return encodeWireBatch(t, empty, nil, 0)
		}(), http.StatusBadRequest, CodeInvalidArgument},
	}
	for _, c := range cases {
		status, ct, out := postRaw(t, ts.URL+"/v1/predict", c.ct, wire.ContentType, c.body)
		if status != c.wantStatus {
			t.Fatalf("%s: status %d (%s), want %d", c.name, status, out, c.wantStatus)
		}
		var e envelope
		if err := json.Unmarshal(out, &e); err != nil {
			t.Fatalf("%s: error body is not the JSON envelope (ct %s): %s", c.name, ct, out)
		}
		if e.Error.Code != c.wantCode {
			t.Fatalf("%s: code %q, want %q", c.name, e.Error.Code, c.wantCode)
		}
	}
}

// TestBinaryUnknownAttribute: a wire column that is not in the artifact
// schema is rejected, mirroring the JSON unknown-key contract.
func TestBinaryUnknownAttribute(t *testing.T) {
	_, rules := taxRules(t, 500)
	_, ts := newTestServer(t, Config{}, rules)

	wb := &wire.Batch{
		Schema: wire.Schema{Names: []string{"Salry"}, Kinds: []wire.Kind{wire.Float64}},
		Rows:   1,
		Cols:   []wire.Col{{Floats: []float64{100}}},
	}
	var buf bytes.Buffer
	if err := wire.EncodeBatch(&buf, wb, wire.EncodeOptions{}); err != nil {
		t.Fatal(err)
	}
	status, _, out := postRaw(t, ts.URL+"/v1/predict", wire.ContentType, "", buf.Bytes())
	if status != http.StatusBadRequest {
		t.Fatalf("status %d: %s", status, out)
	}
	if !bytes.Contains(out, []byte("Salry")) {
		t.Fatalf("error does not name the offending attribute: %s", out)
	}
}

// TestBinaryAbsentColumnIsNull: omitting a schema attribute from the wire
// schema behaves exactly like omitting the key in JSON — the column decodes
// as all-null, and predictions agree bitwise between the two spellings.
func TestBinaryAbsentColumnIsNull(t *testing.T) {
	rel, rules := taxRules(t, 500)
	_, ts := newTestServer(t, Config{}, rules)

	salary := rel.Schema.MustIndex("Salary")
	state := rel.Schema.MustIndex("State")

	// JSON: only Salary and State present.
	objs := make([]map[string]any, 50)
	for i := 0; i < 50; i++ {
		tp := rel.Tuples[i]
		objs[i] = map[string]any{
			"Salary": tp[salary].Num,
			"State":  tp[state].Str,
		}
	}
	jbody, _ := json.Marshal(map[string]any{"tuples": objs})
	status, _, jout := postRaw(t, ts.URL+"/v1/predict", "application/json", "", jbody)
	if status != http.StatusOK {
		t.Fatalf("json status %d: %s", status, jout)
	}
	var jresp predictResponse
	if err := json.Unmarshal(jout, &jresp); err != nil {
		t.Fatal(err)
	}

	// Binary: a two-column wire schema.
	floats := make([]float64, 50)
	codes := make([]uint32, 50)
	var dict []string
	seen := map[string]uint32{}
	for i := 0; i < 50; i++ {
		floats[i] = rel.Tuples[i][salary].Num
		s := rel.Tuples[i][state].Str
		code, ok := seen[s]
		if !ok {
			code = uint32(len(dict))
			seen[s] = code
			dict = append(dict, s)
		}
		codes[i] = code
	}
	wb := &wire.Batch{
		Schema: wire.Schema{Names: []string{"State", "Salary"}, Kinds: []wire.Kind{wire.String, wire.Float64}},
		Rows:   50,
		Cols:   []wire.Col{{Codes: codes, Dict: dict}, {Floats: floats}},
	}
	var buf bytes.Buffer
	if err := wire.EncodeBatch(&buf, wb, wire.EncodeOptions{}); err != nil {
		t.Fatal(err)
	}
	status, _, bout := postRaw(t, ts.URL+"/v1/predict", wire.ContentType, "", buf.Bytes())
	if status != http.StatusOK {
		t.Fatalf("binary status %d: %s", status, bout)
	}
	bresp, err := wire.DecodePredictions(bytes.NewReader(bout), wire.DecodeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jresp.Predictions {
		if math.Float64bits(jresp.Predictions[i].Value) != math.Float64bits(bresp.Values[i]) ||
			jresp.Predictions[i].Covered != bresp.Covered[i] {
			t.Fatalf("tuple %d: json (%v,%v), binary (%v,%v)", i,
				jresp.Predictions[i].Value, jresp.Predictions[i].Covered, bresp.Values[i], bresp.Covered[i])
		}
	}
}
