// Package ml implements the learning stack the paper's §6 model needs,
// from scratch on the standard library: CART decision trees split on
// gini impurity, bootstrap-aggregated random forests with feature
// subsampling, gini feature importance, stratified k-fold
// cross-validation, grid search, and the top-k accuracy metric used to
// compare the model against the most-populated-cluster baseline.
//
// Training is built for throughput without giving up reproducibility:
// forests train on a bounded worker pool with every random draw made
// serially up front, bootstrap samples are row weights rather than
// copies, each node orders its rows for a sampled feature by counting
// sort over value ranks computed once per fit, and the batch
// prediction path is allocation-free. All of it is bit-identical to
// the straightforward serial implementation — see README "Learning
// engine internals".
package ml

import (
	"fmt"
	"math"
	"math/rand"
)

// Dataset is a supervised classification dataset. Rows of X are
// feature vectors; Y holds class labels in [0, NumClasses).
type Dataset struct {
	X          [][]float64
	Y          []int
	NumClasses int
}

// Validate checks shape invariants.
func (d *Dataset) Validate() error {
	if len(d.X) == 0 {
		return fmt.Errorf("ml: empty dataset")
	}
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("ml: %d feature rows but %d labels", len(d.X), len(d.Y))
	}
	if d.NumClasses <= 0 {
		return fmt.Errorf("ml: NumClasses = %d", d.NumClasses)
	}
	width := len(d.X[0])
	for i, row := range d.X {
		if len(row) != width {
			return fmt.Errorf("ml: row %d has %d features, row 0 has %d", i, len(row), width)
		}
	}
	for i, y := range d.Y {
		if y < 0 || y >= d.NumClasses {
			return fmt.Errorf("ml: label %d at row %d out of [0,%d)", y, i, d.NumClasses)
		}
	}
	return nil
}

// Subset returns the dataset restricted to the given row indices
// (shared backing arrays; do not mutate rows).
func (d *Dataset) Subset(idx []int) *Dataset {
	out := &Dataset{NumClasses: d.NumClasses}
	out.X = make([][]float64, len(idx))
	out.Y = make([]int, len(idx))
	for i, j := range idx {
		out.X[i] = d.X[j]
		out.Y[i] = d.Y[j]
	}
	return out
}

// TreeConfig controls CART growth.
type TreeConfig struct {
	// MaxDepth limits tree depth; 0 means unlimited.
	MaxDepth int
	// MinSamplesLeaf is the minimum samples in a leaf; 0 means 1.
	MinSamplesLeaf int
	// MinSamplesSplit is the minimum samples to attempt a split; 0
	// means 2.
	MinSamplesSplit int
	// MaxFeatures is the number of features considered per split; 0
	// means all, -1 means floor(sqrt(numFeatures)) (the random-forest
	// default).
	MaxFeatures int
}

func (c TreeConfig) normalized(numFeatures int) TreeConfig {
	if c.MinSamplesLeaf <= 0 {
		c.MinSamplesLeaf = 1
	}
	if c.MinSamplesSplit < 2 {
		c.MinSamplesSplit = 2
	}
	switch {
	case c.MaxFeatures == 0 || c.MaxFeatures > numFeatures:
		c.MaxFeatures = numFeatures
	case c.MaxFeatures < 0:
		c.MaxFeatures = int(math.Sqrt(float64(numFeatures)))
		if c.MaxFeatures < 1 {
			c.MaxFeatures = 1
		}
	}
	return c
}

// node is one tree node; leaves carry the class distribution.
type node struct {
	feature   int // -1 for leaf
	threshold float64
	left      int32
	right     int32
	probs     []float64 // leaf class distribution (view into Tree.leafProbs)
}

// Tree is a trained CART classifier.
type Tree struct {
	nodes       []node
	numClasses  int
	numFeatures int
	importance  []float64 // unnormalized gini-decrease per feature
	// leafProbs is the single backing array every leaf's probs slice
	// points into: one numClasses-wide block per leaf in node order.
	leafProbs []float64
}

// fitContext is the per-dataset presort shared by every tree of a fit:
// the labels, and per varying feature a column-major copy of its values
// plus each row's dense value rank. Columns that are constant across
// the dataset (most of the §6 cluster-count features are) can never
// host a split, so they carry neither. Immutable after construction;
// concurrent tree builders share one instance.
type fitContext struct {
	d           *Dataset
	numFeatures int
	y           []int32     // y[row] = d.Y[row]
	cols        [][]float64 // cols[f][row] = X[row][f]; nil when column f is constant
	rank        [][]int32   // rank[f][row] = position of X[row][f] among column f's distinct values, ascending
}

// newFitContext copies and ranks each varying feature column with one
// sort. O(active features * n log n), paid once per FitForest/FitTree
// call.
func newFitContext(d *Dataset) *fitContext {
	n := len(d.X)
	nf := len(d.X[0])
	fc := &fitContext{
		d:           d,
		numFeatures: nf,
		y:           make([]int32, n),
		cols:        make([][]float64, nf),
		rank:        make([][]int32, nf),
	}
	for r, y := range d.Y {
		fc.y[r] = int32(y)
	}
	varying := make([]bool, nf)
	active := 0
	for f := range varying {
		for _, row := range d.X[1:] {
			if row[f] != d.X[0][f] {
				varying[f] = true
				active++
				break
			}
		}
	}
	colsFlat := make([]float64, active*n)
	rankFlat := make([]int32, active*n)
	ord := make([]int32, n)
	k := 0
	for f, v := range varying {
		if !v {
			continue
		}
		col := colsFlat[k*n : (k+1)*n : (k+1)*n]
		rank := rankFlat[k*n : (k+1)*n : (k+1)*n]
		k++
		for r, row := range d.X {
			col[r] = row[f]
			ord[r] = int32(r)
		}
		sortIdxByKey(col, ord)
		level := int32(0)
		for i, r := range ord {
			if i > 0 && col[r] != col[ord[i-1]] {
				level++
			}
			rank[r] = level
		}
		fc.cols[f], fc.rank[f] = col, rank
	}
	return fc
}

// sortIdxByKey sorts idx ascending by key[idx[i]] with a fat-pivot
// (three-way) quicksort: no closure dispatch, and duplicate-heavy
// columns — the common case for cluster-count features — collapse in
// one partition pass. Equal keys land in arbitrary order, which the
// split scan is insensitive to.
func sortIdxByKey(key []float64, idx []int32) {
	for len(idx) > 16 {
		a, b, c := key[idx[0]], key[idx[len(idx)/2]], key[idx[len(idx)-1]]
		// Median of three as the fat pivot.
		pivot := a
		switch {
		case (a <= b && b <= c) || (c <= b && b <= a):
			pivot = b
		case (a <= c && c <= b) || (b <= c && c <= a):
			pivot = c
		}
		lt, i, gt := 0, 0, len(idx)
		for i < gt {
			k := key[idx[i]]
			switch {
			case k < pivot:
				idx[lt], idx[i] = idx[i], idx[lt]
				lt++
				i++
			case k > pivot:
				gt--
				idx[i], idx[gt] = idx[gt], idx[i]
			default:
				i++
			}
		}
		// Recurse into the smaller side, loop on the larger.
		if lt < len(idx)-gt {
			sortIdxByKey(key, idx[:lt])
			idx = idx[gt:]
		} else {
			sortIdxByKey(key, idx[gt:])
			idx = idx[:lt]
		}
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && key[idx[j]] < key[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}

// FitTree grows a CART tree. The rng drives feature subsampling; pass
// nil for deterministic all-features behaviour.
func FitTree(d *Dataset, cfg TreeConfig, rng *rand.Rand) (*Tree, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	b := &treeBuilder{}
	return b.fitTree(newFitContext(d), cfg, rng, nil)
}

// treeBuilder grows trees from a fitContext. All of its buffers are
// reused across trees, so a worker that fits many trees allocates the
// scratch once. Not safe for concurrent use; the pool gives each
// worker its own builder.
//
// A tree's sample is a weight per dataset row — its bootstrap
// multiplicity, 1 for the identity sample — over the distinct rows of
// nonzero weight. Class counts, node sizes and the split scan's left
// size add weights instead of counting copies. They stay exact
// integers in float64, so every gini, gain, threshold and importance
// has the same bits as growing on the expanded sample d.Subset(boot).
type treeBuilder struct {
	fc    *fitContext
	cfg   TreeConfig
	rng   *rand.Rand
	t     *Tree
	total float64 // sample size: the sum of all weights

	w    []float64 // w[row]: bootstrap multiplicity of row
	rows []int32   // sampled rows; each node owns a contiguous range, partitioned down the recursion
	tmp  []int32   // partition scratch (right-child spill)
	seg  []int32   // one sampled feature's node rows, sorted by value
	hist []int32   // counting-sort buckets over the node's rank span

	counts      []float64 // class weights of the current node
	leftCounts  []float64
	rightCounts []float64
	present     []int32   // classes of nonzero weight in the current node, ascending
	perm        []int     // sampleFeatures scratch
	probs       []float64 // leaf distributions of the tree being grown, in node order
	allFeatures []int     // identity feature list when MaxFeatures >= numFeatures
}

// fitTree grows one tree over the sample positions boot (nil = the
// identity sample, i.e. the whole dataset). The result is bit-identical
// to growing on d.Subset(boot) with the sort-per-node engine.
func (b *treeBuilder) fitTree(fc *fitContext, cfg TreeConfig, rng *rand.Rand, boot []int) (*Tree, error) {
	cfg = cfg.normalized(fc.numFeatures)
	if cfg.MaxFeatures < fc.numFeatures && rng == nil {
		return nil, fmt.Errorf("ml: feature subsampling requires an rng")
	}
	t := &Tree{
		numClasses:  fc.d.NumClasses,
		numFeatures: fc.numFeatures,
		importance:  make([]float64, fc.numFeatures),
	}
	b.fc, b.cfg, b.rng, b.t = fc, cfg, rng, t
	b.reset(boot)
	b.grow(0, int32(len(b.rows)), 0)
	// Leaf distributions accumulate in builder scratch, then move to
	// one exactly sized array the tree keeps; leaf views into it are
	// stable: each leaf gets its numClasses-wide block in node (= DFS)
	// order.
	t.leafProbs = append([]float64(nil), b.probs...)
	off := 0
	for i := range t.nodes {
		if t.nodes[i].feature < 0 {
			t.nodes[i].probs = t.leafProbs[off : off+t.numClasses : off+t.numClasses]
			off += t.numClasses
		}
	}
	return t, nil
}

// reset sizes the scratch for the current fitContext and loads the
// tree's sample: the row weights and the list of rows they select.
func (b *treeBuilder) reset(boot []int) {
	nRows, nf, nc := len(b.fc.d.X), b.fc.numFeatures, b.fc.d.NumClasses
	if cap(b.w) < nRows {
		b.w = make([]float64, nRows)
		b.rows = make([]int32, 0, nRows)
		b.tmp = make([]int32, nRows)
		b.seg = make([]int32, nRows)
		b.hist = make([]int32, nRows+1)
	}
	b.w = b.w[:nRows]
	if cap(b.counts) < nc {
		b.counts = make([]float64, nc)
		b.leftCounts = make([]float64, nc)
		b.rightCounts = make([]float64, nc)
		b.present = make([]int32, 0, nc)
	}
	b.counts = b.counts[:nc]
	b.leftCounts = b.leftCounts[:nc]
	b.rightCounts = b.rightCounts[:nc]
	if len(b.allFeatures) != nf {
		b.allFeatures = make([]int, nf)
		b.perm = make([]int, nf)
		for f := range b.allFeatures {
			b.allFeatures[f] = f
		}
	}

	if boot == nil {
		for r := range b.w {
			b.w[r] = 1
		}
		b.total = float64(nRows)
	} else {
		clear(b.w)
		for _, r := range boot {
			b.w[r]++
		}
		b.total = float64(len(boot))
	}
	b.probs = b.probs[:0]
	b.rows = b.rows[:0]
	for r, w := range b.w {
		if w > 0 {
			b.rows = append(b.rows, int32(r))
		}
	}
}

// gini is the impurity of the class weights counts, which sum to n and
// are nonzero only for the classes in present. Each absent class would
// subtract 0*0, and g - 0 == g, so skipping them leaves every bit of
// the result unchanged.
func gini(counts []float64, present []int32, n float64) float64 {
	if n == 0 {
		return 0
	}
	g := 1.0
	for _, c := range present {
		p := counts[c] / n
		g -= p * p
	}
	return g
}

// nodeCounts loads the class weights of rows into b.counts and the
// classes present among them into b.present, and returns their total
// weight.
func (b *treeBuilder) nodeCounts(rows []int32) float64 {
	clear(b.counts)
	n := 0.0
	for _, r := range rows {
		b.counts[b.fc.y[r]] += b.w[r]
		n += b.w[r]
	}
	b.present = b.present[:0]
	for c, v := range b.counts {
		if v > 0 {
			b.present = append(b.present, int32(c))
		}
	}
	return n
}

// grow builds the subtree over the node's rows b.rows[lo:hi] and
// returns its node index.
func (b *treeBuilder) grow(lo, hi int32, depth int) int32 {
	rows := b.rows[lo:hi]
	n := b.nodeCounts(rows)
	counts := b.counts

	makeLeaf := func() int32 {
		for _, c := range counts {
			b.probs = append(b.probs, c/n)
		}
		b.t.nodes = append(b.t.nodes, node{feature: -1})
		return int32(len(b.t.nodes) - 1)
	}

	if int(n) < b.cfg.MinSamplesSplit ||
		(b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth) ||
		len(b.present) <= 1 {
		return makeLeaf()
	}

	feature, threshold, gain := b.bestSplit(rows, n)
	if feature < 0 {
		return makeLeaf()
	}

	// Partition the rows by side: left rows compact forward, right rows
	// spill to scratch and append behind.
	col := b.fc.cols[feature]
	k, m := 0, 0
	nLeft := 0.0
	for _, r := range rows {
		if col[r] <= threshold {
			rows[k] = r
			k++
			nLeft += b.w[r]
		} else {
			b.tmp[m] = r
			m++
		}
	}
	copy(rows[k:], b.tmp[:m])
	if int(nLeft) < b.cfg.MinSamplesLeaf || int(n-nLeft) < b.cfg.MinSamplesLeaf {
		return makeLeaf()
	}

	// Importance: impurity decrease weighted by the node's share of
	// training samples (scikit-learn's convention).
	b.t.importance[feature] += n / b.total * gain

	// Reserve this node's slot before growing children.
	me := int32(len(b.t.nodes))
	b.t.nodes = append(b.t.nodes, node{feature: feature, threshold: threshold})
	l := b.grow(lo, lo+int32(k), depth+1)
	r := b.grow(lo+int32(k), hi, depth+1)
	b.t.nodes[me].left = l
	b.t.nodes[me].right = r
	return me
}

// bestSplit searches the sampled features for the gini-optimal
// threshold over the node's rows, whose class weights (summing to n)
// are b.counts. Returns feature -1 when no split improves impurity.
//
// Each feature's candidate scan walks the node's rows in value order
// and evaluates only boundaries between distinct values, where the
// left side's class weights are the same whatever the order within
// equal-value runs. It therefore visits the same candidates with the
// same class counts as the sort-per-node engine does on the expanded
// sample, and the chosen split is bit-identical;
// TestBestSplitPresortIdentical holds the two together.
func (b *treeBuilder) bestSplit(rows []int32, n float64) (int, float64, float64) {
	fc, w, present := b.fc, b.w, b.present
	parentCounts, leftCounts, rightCounts := b.counts, b.leftCounts, b.rightCounts
	parentGini := gini(parentCounts, present, n)
	bestFeature := -1
	bestThreshold := 0.0
	bestGain := 1e-12 // require a strictly positive gain

	for _, f := range b.sampleFeatures() {
		seg := b.sortedRows(f, rows)
		if seg == nil {
			continue // constant within this node
		}
		for _, c := range present {
			leftCounts[c] = 0
			rightCounts[c] = parentCounts[c]
		}
		rank, col := fc.rank[f], fc.cols[f]
		nl := 0.0
		for i := 0; i < len(seg)-1; i++ {
			r := seg[i]
			yi, wi := fc.y[r], w[r]
			leftCounts[yi] += wi
			rightCounts[yi] -= wi
			nl += wi
			if rank[r] == rank[seg[i+1]] {
				continue // can't split between equal values
			}
			nr := n - nl
			if int(nl) < b.cfg.MinSamplesLeaf || int(nr) < b.cfg.MinSamplesLeaf {
				continue
			}
			g := parentGini - (nl/n)*gini(leftCounts, present, nl) - (nr/n)*gini(rightCounts, present, nr)
			if g > bestGain {
				bestGain = g
				bestFeature = f
				bestThreshold = (col[r] + col[seg[i+1]]) / 2
			}
		}
	}
	return bestFeature, bestThreshold, bestGain
}

// sortedRows returns the node's rows ordered by feature f's value, or
// nil when f is constant over them. The order comes from the rank
// column: a counting sort over the node's rank span, O(rows + span),
// when the span is at most 8x the row count — always at the dense top
// of a tree, and for small-integer features at every depth — and the
// closure-free quicksort otherwise. Ties land in arbitrary order, which
// the split scan is insensitive to.
func (b *treeBuilder) sortedRows(f int, rows []int32) []int32 {
	rank := b.fc.rank[f]
	if rank == nil {
		return nil // constant across the dataset
	}
	lo, hi := rank[rows[0]], rank[rows[0]]
	for _, r := range rows[1:] {
		lo = min(lo, rank[r])
		hi = max(hi, rank[r])
	}
	if lo == hi {
		return nil
	}
	seg := b.seg[:len(rows)]
	span := int(hi-lo) + 1
	if span > 8*len(rows) {
		copy(seg, rows)
		sortIdxByKey(b.fc.cols[f], seg)
		return seg
	}
	// start[k] counts rank lo+k-1, then (after the prefix sum) holds
	// the first output slot of rank lo+k.
	start := b.hist[:span+1]
	clear(start)
	for _, r := range rows {
		start[rank[r]-lo+1]++
	}
	for k := 1; k < span; k++ {
		start[k] += start[k-1]
	}
	for _, r := range rows {
		k := rank[r] - lo
		seg[start[k]] = r
		start[k]++
	}
	return seg
}

// sampleFeatures picks cfg.MaxFeatures distinct feature indices: the
// first MaxFeatures of rng.Perm(nf), computed by Perm's own loop in
// reused scratch, so the draws and the rng's stream position are
// Perm's and nothing is allocated.
func (b *treeBuilder) sampleFeatures() []int {
	if b.cfg.MaxFeatures >= b.fc.numFeatures {
		return b.allFeatures
	}
	m := b.perm
	for i := range m {
		j := b.rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m[:b.cfg.MaxFeatures]
}

// leaf descends to the leaf for x without width validation; callers
// (Forest's batch path) validate once at the ensemble level.
func (t *Tree) leaf(x []float64) *node {
	i := int32(0)
	for {
		nd := &t.nodes[i]
		if nd.feature < 0 {
			return nd
		}
		if x[nd.feature] <= nd.threshold {
			i = nd.left
		} else {
			i = nd.right
		}
	}
}

// PredictProba returns the class distribution for one feature vector.
func (t *Tree) PredictProba(x []float64) ([]float64, error) {
	if len(x) != t.numFeatures {
		return nil, fmt.Errorf("ml: input has %d features, tree trained on %d", len(x), t.numFeatures)
	}
	return t.leaf(x).probs, nil
}

// Predict returns the most probable class.
func (t *Tree) Predict(x []float64) (int, error) {
	p, err := t.PredictProba(x)
	if err != nil {
		return 0, err
	}
	return argmax(p), nil
}

// NumNodes reports tree size.
func (t *Tree) NumNodes() int { return len(t.nodes) }

// Importance returns the normalized gini importance per feature
// (sums to 1 when any split happened).
func (t *Tree) Importance() []float64 {
	out := append([]float64(nil), t.importance...)
	normalize(out)
	return out
}

func normalize(xs []float64) {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	if s == 0 {
		return
	}
	for i := range xs {
		xs[i] /= s
	}
}

func argmax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}
