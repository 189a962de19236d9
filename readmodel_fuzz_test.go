package parclass

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// FuzzReadModel holds the model reader to "never panic, never accept then
// fail to serve": ReadModel may reject any input, but every model it
// accepts compiles and classifies a schema-shaped row. That is why the
// predict paths carry no pointer-walk fallback for a failed Compile.
// Seeds: the pinned v1 artifact, a v2 forest written by WriteModel, and
// truncated or mutated copies of both. `go test` runs the seeds; explore
// with `go test -run '^$' -fuzz FuzzReadModel -fuzztime 60s .`.
func FuzzReadModel(f *testing.F) {
	v1, err := os.ReadFile(filepath.Join("testdata", "model_v1.json"))
	if err != nil {
		f.Fatal(err)
	}
	forest, err := TrainForest(synthDS(f, 2, 400), Options{Trees: 3, ForestSeed: 5, MaxDepth: 4})
	if err != nil {
		f.Fatal(err)
	}
	var v2 bytes.Buffer
	if err := forest.WriteModel(&v2); err != nil {
		f.Fatal(err)
	}
	for _, doc := range []string{string(v1), v2.String()} {
		f.Add([]byte(doc))
		f.Add([]byte(doc[:len(doc)/2]))
		f.Add([]byte(doc[:len(doc)-3]))
		for _, m := range [][2]string{
			{`"kind": "continuous"`, `"kind": "categorical"`},
			{`"kind": "categorical"`, `"kind": "continuous"`},
			{`"version": 1`, `"version": 2`},
			{`"version": 2`, `"version": 1`},
			{`"attr": `, `"attr": 9`},
			{`"class": 0`, `"class": 7`},
			{`"subset": [`, `"subset": [-1, `},
			{`"threshold": `, `"threshold": -`},
			{`"split"`, `"splat"`},
			{`"categories": [`, `"categories": ["dup", "dup", `},
		} {
			f.Add([]byte(strings.Replace(doc, m[0], m[1], 1)))
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadModel(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := p.Compile(); err != nil {
			t.Fatalf("ReadModel accepted a model that does not compile: %v", err)
		}
		s := p.Schema()
		row := make([]string, len(s.Attrs))
		for a := range s.Attrs {
			row[a] = "0"
			if s.Attrs[a].Kind == dataset.Categorical {
				row[a] = s.Attrs[a].Categories[0]
			}
		}
		preds, err := p.PredictValuesBatch([][]string{row})
		if err != nil || len(preds) != 1 {
			t.Fatalf("accepted model cannot score a schema-shaped row: %v, %v", preds, err)
		}
	})
}
