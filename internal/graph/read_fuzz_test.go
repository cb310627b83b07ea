package graph

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzRead pins the graph file reader's contract on arbitrary input: it
// never panics, and a file it accepts re-serialises to a fixed point —
// writing the graph it read, reading that back and writing again yields the
// same bytes.
func FuzzRead(f *testing.F) {
	for _, s := range readErrorInputs {
		f.Add([]byte(s))
	}
	var seed bytes.Buffer
	if _, err := randomGraph(rand.New(rand.NewSource(1)), 6, 12).WriteTo(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Read(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if _, err := g.WriteTo(&first); err != nil {
			t.Fatal(err)
		}
		g2, err := Read(bytes.NewReader(first.Bytes()), nil)
		if err != nil {
			t.Fatalf("re-serialisation of an accepted graph does not read: %v\n%s", err, first.Bytes())
		}
		if _, err := g2.WriteTo(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("not a fixed point:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
