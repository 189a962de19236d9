package cluster

import (
	"testing"

	"repro/internal/serve"
)

// FuzzParseVersion holds the version vector's wire form to three
// properties: ParseVersion never panics; whatever it accepts renders to a
// canonical String that parses back to a vector Compare calls Equal; and
// for every ID New accepts, a vector on that ID survives String and
// ParseVersion unchanged.
func FuzzParseVersion(f *testing.F) {
	for _, s := range []string{
		"", "a=1", "a=2,b=1", " a=1 , b=2 ", "b=1,a=2", "a=0", "a=01",
		"a=18446744073709551615", "a=18446744073709551616", "a=1,a=2",
		"a", "=1", "a=", "a=1,,b=2", "a,b=1", "n=1=1", " sp=1", "a b=1",
		"a\x00=1", "\xff=1", "ñ=1",
	} {
		f.Add(s, "a", uint64(1))
	}
	f.Add("a=1", "a,b", uint64(7))
	f.Add("a=1", "n=1", uint64(7))
	f.Add("a=1", " sp", uint64(7))
	srv := serve.New("")
	f.Fuzz(func(t *testing.T, s, id string, c uint64) {
		if v, err := ParseVersion(s); err == nil {
			canon := v.String()
			w, err := ParseVersion(canon)
			if err != nil {
				t.Fatalf("ParseVersion(%q) accepted, but its String %q does not parse: %v", s, canon, err)
			}
			if w.String() != canon {
				t.Fatalf("String of %q is not canonical: %q re-renders as %q", s, canon, w.String())
			}
			if v.Compare(w) != Equal {
				t.Fatalf("%q and its canonical form %q compare %v", s, canon, v.Compare(w))
			}
		}
		if _, err := New(Config{ID: id}, srv); err != nil {
			return
		}
		for _, v := range []Version{{id: c}, Version{"m": 2}.Bump(id)} {
			got, err := ParseVersion(v.String())
			if err != nil {
				t.Fatalf("ID %q accepted by New, but %q does not parse: %v", id, v.String(), err)
			}
			if len(got) != len(v) || got.Compare(v) != Equal {
				t.Fatalf("ID %q accepted by New, but %q parses back as %v", id, v.String(), got)
			}
			for n, k := range v {
				if got[n] != k {
					t.Fatalf("ID %q: axis %q came back as %d, want %d", id, n, got[n], k)
				}
			}
		}
	})
}
