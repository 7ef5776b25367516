package ml

import (
	"bytes"
	"strings"
	"testing"
)

func TestForestSaveLoadRoundTrip(t *testing.T) {
	d := gaussDataset(200, 30)
	f1, err := FitForest(d, ForestConfig{NumTrees: 8, Tree: TreeConfig{MaxDepth: 6}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	f2, err := LoadForest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f2.NumTrees() != f1.NumTrees() {
		t.Fatalf("tree count %d != %d", f2.NumTrees(), f1.NumTrees())
	}
	// Identical predictions on every training row.
	for i, x := range d.X {
		p1, err1 := f1.PredictProba(x)
		p2, err2 := f2.PredictProba(x)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		for j := range p1 {
			if p1[j] != p2[j] {
				t.Fatalf("row %d class %d: %v != %v", i, j, p1[j], p2[j])
			}
		}
	}
	// Importances survive.
	i1, i2 := f1.Importance(), f2.Importance()
	for j := range i1 {
		if i1[j] != i2[j] {
			t.Fatalf("importance %d: %v != %v", j, i1[j], i2[j])
		}
	}
}

func TestLoadForestRejectsGarbage(t *testing.T) {
	cases := []string{
		"not json",
		`{"version":99,"num_classes":2,"num_features":1,"trees":[{"nodes":[{"f":-1,"p":[1,0]}]}]}`,
		`{"version":1,"num_classes":0,"num_features":1,"trees":[{"nodes":[{"f":-1,"p":[]}]}]}`,
		`{"version":1,"num_classes":2,"num_features":1,"trees":[]}`,
		// leaf with wrong prob arity
		`{"version":1,"num_classes":2,"num_features":1,"trees":[{"importance":[0],"nodes":[{"f":-1,"p":[1]}]}]}`,
		// split referencing missing feature
		`{"version":1,"num_classes":2,"num_features":1,"trees":[{"importance":[0],"nodes":[{"f":5,"l":0,"r":0}]}]}`,
		// self-referential node
		`{"version":1,"num_classes":2,"num_features":1,"trees":[{"importance":[0],"nodes":[{"f":0,"l":0,"r":0}]}]}`,
		// out-of-range child
		`{"version":1,"num_classes":2,"num_features":1,"trees":[{"importance":[0],"nodes":[{"f":0,"l":1,"r":9}]}]}`,
		// empty tree
		`{"version":1,"num_classes":2,"num_features":1,"trees":[{"importance":[0],"nodes":[]}]}`,
		// importance arity mismatch
		`{"version":1,"num_classes":2,"num_features":2,"trees":[{"importance":[0],"nodes":[{"f":-1,"p":[1,0]}]}]}`,
		// importance missing: Save always writes it, and without it the
		// header's feature width would size an allocation unchecked
		`{"version":1,"num_classes":2,"num_features":3,"trees":[{"nodes":[{"f":-1,"p":[1,0]}]}]}`,
	}
	for i, c := range cases {
		if _, err := LoadForest(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestLoadedForestStillRanks(t *testing.T) {
	d := gaussDataset(150, 31)
	f, err := FitForest(d, ForestConfig{NumTrees: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadForest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := TopKAccuracy(ForestRanker{loaded}, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.8 {
		t.Errorf("loaded forest accuracy %v", acc)
	}
}

// cyclicForest is a two-node tree whose children point back up: the
// root's children are node 1, and node 1's are the root. Every
// descent through it loops forever.
const cyclicForest = `{"version":1,"num_classes":2,"num_features":1,"trees":[{"importance":[0],` +
	`"nodes":[{"f":0,"l":1,"r":1},{"f":0,"l":0,"r":0}]}]}`

// TestLoadForestRejectsCycle: children must come after their parent in
// the node array (Save's pre-order), so a cyclic model file fails to
// load instead of hanging the first prediction.
func TestLoadForestRejectsCycle(t *testing.T) {
	if _, err := LoadForest(strings.NewReader(cyclicForest)); err == nil {
		t.Fatal("cyclic forest accepted")
	}
	// The same tree with the back edge removed is a valid stump.
	ok := `{"version":1,"num_classes":2,"num_features":1,"trees":[{"importance":[0],` +
		`"nodes":[{"f":0,"t":0.5,"l":1,"r":2},{"f":-1,"p":[1,0]},{"f":-1,"p":[0,1]}]}]}`
	f, err := LoadForest(strings.NewReader(ok))
	if err != nil {
		t.Fatal(err)
	}
	if y, err := f.Predict([]float64{1}); err != nil || y != 1 {
		t.Errorf("stump predicts %d, %v; want 1", y, err)
	}
}

// FuzzLoadForest: any bytes that load must describe a forest that
// answers a prediction (no panic, no endless descent) and survives
// Save → LoadForest → Save unchanged.
func FuzzLoadForest(f *testing.F) {
	forest, err := FitForest(gaussDataset(30, 1), ForestConfig{NumTrees: 2, Tree: TreeConfig{MaxDepth: 3}, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := forest.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(cyclicForest))
	f.Fuzz(func(t *testing.T, data []byte) {
		forest, err := LoadForest(bytes.NewReader(data))
		if err != nil {
			return
		}
		if _, err := forest.PredictProba(make([]float64, forest.NumFeatures())); err != nil {
			t.Fatalf("loaded forest rejects a zero vector: %v", err)
		}
		var first bytes.Buffer
		if err := forest.Save(&first); err != nil {
			t.Fatal(err)
		}
		again, err := LoadForest(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("saved forest does not load: %v", err)
		}
		var second bytes.Buffer
		if err := again.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the bytes:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
