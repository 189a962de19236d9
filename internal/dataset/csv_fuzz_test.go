package dataset

import (
	"bytes"
	"testing"
)

// FuzzCSV holds the CSV loaders to "never panic, and never accept what
// they cannot write back": InferCSV may reject any input, but every table
// it accepts survives WriteCSV → ReadCSV(schema) → WriteCSV byte for byte,
// and InferCSV accepts the written bytes too. Seeds cover numeric,
// categorical, quoted and NaN cells. `go test` runs the seeds; explore with
// `go test -run '^$' -fuzz FuzzCSV -fuzztime 60s ./internal/dataset/`.
func FuzzCSV(f *testing.F) {
	for _, seed := range []string{
		"age,color,class\n30,red,yes\n40,green,no\n50,red,yes\n",
		"x,y,class\n1.5,-2e3,a\n0x1p-2,7,b\n-0,1e-300,a\n",
		"k,class\nred,G\nblue,B\n3,G\n",
		"name,class\n\"a,b\",1\n\"say \"\"hi\"\"\",2\n\" lead\",1\n",
		"multi,class\n\"line\none\",x\n\"two\r\nlines\",y\n",
		"age,color,class\nNaN,red,yes\n1,green,no\n",
		"age,class\n+Inf,a\n-Inf,b\n",
		"a,b,class\n1,2\n",
		"a,class\n",
		"",
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, err := InferCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := tbl.WriteCSV(&first); err != nil {
			t.Fatalf("WriteCSV of an inferred table: %v", err)
		}
		back, err := ReadCSV(bytes.NewReader(first.Bytes()), tbl.Schema())
		if err != nil {
			t.Fatalf("ReadCSV rejected what WriteCSV wrote: %v\n%q", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := back.WriteCSV(&second); err != nil {
			t.Fatalf("WriteCSV of a re-read table: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the bytes:\n%q\n%q", first.Bytes(), second.Bytes())
		}
		if _, err := InferCSV(bytes.NewReader(first.Bytes())); err != nil {
			t.Fatalf("InferCSV rejected what WriteCSV wrote: %v\n%q", err, first.Bytes())
		}
	})
}
