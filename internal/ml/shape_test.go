package ml

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sixShapeDataset draws rows shaped like the §6 model input: the local
// hour (0–23) followed by 250 per-cluster counts of the satellites
// available in a slot. Each row places ~25–45 satellites into clusters
// keyed by three clamped integer z-scores and a sunlit bit, so most
// counts are 0 and the rest are small integers concentrated around the
// central clusters. The label is the cluster of one available
// satellite, picked with a bias toward high elevation z, which gives
// the skewed 250-class target the scheduler produces.
func sixShapeDataset(n int, seed int64) *Dataset {
	const levels, clusters = 5, 250
	rng := rand.New(rand.NewSource(seed))
	z := func() int {
		v := int(math.Round(rng.NormFloat64()))
		return min(max(v, -2), 2) + 2
	}
	d := &Dataset{NumClasses: clusters}
	for i := 0; i < n; i++ {
		row := make([]float64, 1+clusters)
		row[0] = float64(rng.Intn(24))
		label, best := 0, -1.0
		for s := 25 + rng.Intn(21); s > 0; s-- {
			el := z()
			c := ((z()*levels+el)*levels+z())*2 + rng.Intn(2)
			row[1+c]++
			if score := float64(el) + rng.Float64()*2.5; score > best {
				label, best = c, score
			}
		}
		d.X = append(d.X, row)
		d.Y = append(d.Y, label)
	}
	return d
}

// sixShapeForest is predictd's refit operating point: 30 trees, depth
// 10, sqrt(251) = 15 features sampled per split.
var sixShapeForest = ForestConfig{NumTrees: 30, Tree: TreeConfig{MaxDepth: 10}, Seed: 17}

// TestForestSixShapeIdentical holds the production engine to the
// sort-per-node reference on the traffic's own shape — 1300 rows of
// small-integer counts, 250 classes, bootstrap sampling — where every
// sampled feature goes through the rank counting sort and most nodes
// hold only a handful of classes. Every tree must match the reference
// grown on d.Subset(boot), and the forest fingerprint is pinned to the
// one the partition/extraction engine produced before this engine
// replaced it.
func TestForestSixShapeIdentical(t *testing.T) {
	d := sixShapeDataset(1300, 3)
	got, err := FitForest(d, sixShapeForest)
	if err != nil {
		t.Fatal(err)
	}
	const want = "02a51279d2920fc7913cee295f8691a82b7572754f9f197e87a9bc262bc1b330"
	if fp := forestFingerprint(t, got); fp != want {
		t.Errorf("fingerprint = %s, want %s", fp, want)
	}
	draw := rand.New(rand.NewSource(sixShapeForest.Seed))
	n := len(d.X)
	for i := 0; i < sixShapeForest.NumTrees; i++ {
		boot := make([]int, n)
		for j := range boot {
			boot[j] = draw.Intn(n)
		}
		treeSeed := draw.Int63()
		want, err := refFitTree(d.Subset(boot), sixShapeForest.normalized().Tree, rand.New(rand.NewSource(treeSeed)))
		if err != nil {
			t.Fatal(err)
		}
		treesEqual(t, got.trees[i], want)
	}
}

// TestSampleFeaturesMatchesPerm holds the scratch-based feature sampler
// to rand.Perm: for every width it must return Perm(nf)[:k] and leave
// the rng at the same stream position, call after call, or every
// forest's feature draws would shift. k == nf takes the all-features
// path, which must draw nothing.
func TestSampleFeaturesMatchesPerm(t *testing.T) {
	for nf := 1; nf <= 300; nf++ {
		all := make([]int, nf)
		for f := range all {
			all[f] = f
		}
		for _, k := range []int{1, (nf + 1) / 2, nf - 1, nf} {
			if k < 1 {
				continue
			}
			b := &treeBuilder{
				fc:          &fitContext{numFeatures: nf},
				cfg:         TreeConfig{MaxFeatures: k},
				rng:         rand.New(rand.NewSource(int64(nf))),
				perm:        make([]int, nf),
				allFeatures: all,
			}
			ref := rand.New(rand.NewSource(int64(nf)))
			for call := 0; call < 3; call++ {
				want := all
				if k < nf {
					want = ref.Perm(nf)[:k]
				}
				if got := b.sampleFeatures(); !slices.Equal(got, want) {
					t.Fatalf("nf=%d k=%d call %d: sampled %v, want %v", nf, k, call, got, want)
				}
			}
			if g, w := b.rng.Int63(), ref.Int63(); g != w {
				t.Fatalf("nf=%d k=%d: rng stream diverged after sampling (%d != %d)", nf, k, g, w)
			}
		}
	}
}
