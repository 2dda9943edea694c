package som

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/bio"
)

func TestGridBasics(t *testing.T) {
	g, err := NewGrid(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.Cells() != 15 {
		t.Errorf("Cells = %d", g.Cells())
	}
	x, y := g.Coords(7)
	if x != 2 || y != 1 {
		t.Errorf("Coords(7) = %d,%d", x, y)
	}
	if g.Index(2, 1) != 7 {
		t.Errorf("Index(2,1) = %d", g.Index(2, 1))
	}
	if d := g.Dist2(0, g.Index(3, 2)); d != 13 {
		t.Errorf("Dist2 = %f, want 13", d)
	}
	if math.Abs(g.Diagonal()-math.Sqrt(16+4)) > 1e-12 {
		t.Errorf("Diagonal = %f", g.Diagonal())
	}
	if _, err := NewGrid(0, 5); err == nil {
		t.Error("zero width accepted")
	}
}

func TestGridNeighbors(t *testing.T) {
	g, _ := NewGrid(3, 3)
	center := g.Index(1, 1)
	if n := g.Neighbors4(center); len(n) != 4 {
		t.Errorf("center neighbors = %d", len(n))
	}
	corner := g.Index(0, 0)
	if n := g.Neighbors4(corner); len(n) != 2 {
		t.Errorf("corner neighbors = %d", len(n))
	}
	if !g.Adjacent(g.Index(0, 0), g.Index(1, 1)) {
		t.Error("diagonal should be 8-adjacent")
	}
	if g.Adjacent(corner, corner) {
		t.Error("self is not adjacent")
	}
	if g.Adjacent(g.Index(0, 0), g.Index(2, 2)) {
		t.Error("distance-2 is not adjacent")
	}
}

func TestCodebookBMU(t *testing.T) {
	g, _ := NewGrid(2, 2)
	cb, err := NewCodebook(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	copy(cb.Vector(0), []float64{0, 0})
	copy(cb.Vector(1), []float64{1, 0})
	copy(cb.Vector(2), []float64{0, 1})
	copy(cb.Vector(3), []float64{1, 1})
	bmu, d2 := cb.BMU([]float64{0.9, 0.1})
	if bmu != 1 {
		t.Errorf("BMU = %d, want 1", bmu)
	}
	if math.Abs(d2-0.02) > 1e-12 {
		t.Errorf("d2 = %f", d2)
	}
	b1, b2 := cb.SecondBMU([]float64{0.9, 0.1})
	if b1 != 1 || b2 == 1 {
		t.Errorf("SecondBMU = %d,%d", b1, b2)
	}
}

func TestCodebookBMUTieBreaksLow(t *testing.T) {
	g, _ := NewGrid(3, 1)
	cb, _ := NewCodebook(g, 1)
	// All neurons identical: BMU must be neuron 0 for determinism.
	bmu, _ := cb.BMU([]float64{0.5})
	if bmu != 0 {
		t.Errorf("tie BMU = %d, want 0", bmu)
	}
}

func TestInitRandomDeterministic(t *testing.T) {
	g, _ := NewGrid(4, 4)
	a, _ := NewCodebook(g, 3)
	b, _ := NewCodebook(g, 3)
	a.InitRandom(7)
	b.InitRandom(7)
	for i := range a.Weights {
		if a.Weights[i] != b.Weights[i] {
			t.Fatal("same seed differs")
		}
	}
}

func TestInitLinearSpansData(t *testing.T) {
	// Data on a line y=x: linear init should place codebook near that line.
	n, dim := 200, 2
	data := make([]float64, n*dim)
	rng := rand.New(rand.NewSource(1))
	for v := 0; v < n; v++ {
		x := rng.Float64()
		data[v*dim] = x
		data[v*dim+1] = x + rng.NormFloat64()*0.01
	}
	g, _ := NewGrid(10, 10)
	cb, _ := NewCodebook(g, dim)
	if err := cb.InitLinear(data, n); err != nil {
		t.Fatal(err)
	}
	// Most variance along (1,1)/√2: corners of the grid should differ
	// substantially along it.
	v0 := cb.Vector(0)
	v1 := cb.Vector(g.Cells() - 1)
	proj := math.Abs((v1[0] - v0[0]) + (v1[1] - v0[1]))
	if proj < 0.3 {
		t.Errorf("linear init did not span the principal axis: %f", proj)
	}
}

func TestInitLinearValidation(t *testing.T) {
	g, _ := NewGrid(3, 3)
	cb, _ := NewCodebook(g, 2)
	if err := cb.InitLinear([]float64{1, 2, 3}, 1); err == nil {
		t.Error("bad shape accepted")
	}
}

func TestPCARecoversAxis(t *testing.T) {
	// Strongly anisotropic Gaussian: PC1 must align with the long axis.
	n, dim := 500, 4
	data := make([]float64, n*dim)
	rng := rand.New(rand.NewSource(2))
	for v := 0; v < n; v++ {
		long := rng.NormFloat64() * 3
		for d := 0; d < dim; d++ {
			data[v*dim+d] = rng.NormFloat64() * 0.1
		}
		data[v*dim+2] += long
	}
	_, pc1, _, s1, s2 := pca2(data, n, dim)
	if math.Abs(pc1[2]) < 0.95 {
		t.Errorf("PC1 = %v, want aligned with axis 2", pc1)
	}
	if s1 < 2 || s1 > 4 {
		t.Errorf("s1 = %f, want ~3", s1)
	}
	if s2 > 0.5 {
		t.Errorf("s2 = %f, want small", s2)
	}
}

func TestTrainBatchReducesQuantizationError(t *testing.T) {
	data, _ := bio.ClusteredVectors(3, 300, 8, 5, 0.05)
	g, _ := NewGrid(6, 6)
	cb, _ := NewCodebook(g, 8)
	cb.InitRandom(1)
	before := QuantizationError(cb, data, 300)
	if err := TrainBatch(cb, data, 300, TrainParams{Epochs: 15}); err != nil {
		t.Fatal(err)
	}
	after := QuantizationError(cb, data, 300)
	if after >= before/2 {
		t.Errorf("QE %f -> %f: batch training did not converge", before, after)
	}
}

func TestTrainOnlineReducesQuantizationError(t *testing.T) {
	data, _ := bio.ClusteredVectors(4, 300, 8, 5, 0.05)
	g, _ := NewGrid(6, 6)
	cb, _ := NewCodebook(g, 8)
	cb.InitRandom(1)
	before := QuantizationError(cb, data, 300)
	if err := TrainOnline(cb, data, 300, TrainParams{Epochs: 15}); err != nil {
		t.Fatal(err)
	}
	after := QuantizationError(cb, data, 300)
	if after >= before/2 {
		t.Errorf("QE %f -> %f: online training did not converge", before, after)
	}
}

func TestBatchOrderInvariance(t *testing.T) {
	// The paper: "unlike the online version, the batch algorithm is not
	// influenced by the order in which the input vectors are presented."
	n, dim := 120, 5
	data := bio.RandomVectors(5, n, dim)
	shuffled := make([]float64, len(data))
	perm := rand.New(rand.NewSource(9)).Perm(n)
	for i, p := range perm {
		copy(shuffled[i*dim:(i+1)*dim], data[p*dim:(p+1)*dim])
	}
	g, _ := NewGrid(5, 5)
	a, _ := NewCodebook(g, dim)
	a.InitRandom(3)
	b := a.Clone()
	if err := TrainBatch(a, data, n, TrainParams{Epochs: 10}); err != nil {
		t.Fatal(err)
	}
	if err := TrainBatch(b, shuffled, n, TrainParams{Epochs: 10}); err != nil {
		t.Fatal(err)
	}
	for i := range a.Weights {
		if math.Abs(a.Weights[i]-b.Weights[i]) > 1e-9 {
			t.Fatalf("batch training depends on input order at weight %d", i)
		}
	}
}

func TestOnlineOrderDependence(t *testing.T) {
	// Sanity check of the contrast the paper draws: online IS order
	// dependent.
	n, dim := 120, 5
	data := bio.RandomVectors(6, n, dim)
	shuffled := make([]float64, len(data))
	perm := rand.New(rand.NewSource(10)).Perm(n)
	for i, p := range perm {
		copy(shuffled[i*dim:(i+1)*dim], data[p*dim:(p+1)*dim])
	}
	g, _ := NewGrid(5, 5)
	a, _ := NewCodebook(g, dim)
	a.InitRandom(3)
	b := a.Clone()
	if err := TrainOnline(a, data, n, TrainParams{Epochs: 3}); err != nil {
		t.Fatal(err)
	}
	if err := TrainOnline(b, shuffled, n, TrainParams{Epochs: 3}); err != nil {
		t.Fatal(err)
	}
	diff := 0.0
	for i := range a.Weights {
		diff += math.Abs(a.Weights[i] - b.Weights[i])
	}
	if diff == 0 {
		t.Error("online training should depend on input order")
	}
}

func TestBatchAccumulateAdditivity(t *testing.T) {
	// Accumulating two blocks must equal accumulating their concatenation —
	// the property that makes the MapReduce split exact.
	n, dim := 100, 4
	data := bio.RandomVectors(7, n, dim)
	g, _ := NewGrid(4, 4)
	cb, _ := NewCodebook(g, dim)
	cb.InitRandom(2)
	cells := g.Cells()

	numAll := make([]float64, cells*dim)
	denAll := make([]float64, cells)
	BatchAccumulate(cb, data, n, 2.0, numAll, denAll)

	numSplit := make([]float64, cells*dim)
	denSplit := make([]float64, cells)
	half := n / 2
	BatchAccumulate(cb, data[:half*dim], half, 2.0, numSplit, denSplit)
	BatchAccumulate(cb, data[half*dim:], n-half, 2.0, numSplit, denSplit)

	for i := range numAll {
		if math.Abs(numAll[i]-numSplit[i]) > 1e-9 {
			t.Fatalf("numerator differs at %d", i)
		}
	}
	for i := range denAll {
		if math.Abs(denAll[i]-denSplit[i]) > 1e-9 {
			t.Fatalf("denominator differs at %d", i)
		}
	}
}

func TestBatchApplyKeepsUntouchedNeurons(t *testing.T) {
	g, _ := NewGrid(2, 2)
	cb, _ := NewCodebook(g, 2)
	cb.InitRandom(4)
	orig := cb.Clone()
	num := make([]float64, 8)
	den := make([]float64, 4)
	den[1] = 2
	num[2], num[3] = 4, 6
	BatchApply(cb, num, den)
	if cb.Vector(1)[0] != 2 || cb.Vector(1)[1] != 3 {
		t.Errorf("updated neuron wrong: %v", cb.Vector(1))
	}
	for _, k := range []int{0, 2, 3} {
		for d := 0; d < 2; d++ {
			if cb.Vector(k)[d] != orig.Vector(k)[d] {
				t.Errorf("neuron %d changed without contributions", k)
			}
		}
	}
}

func TestRadiusSchedule(t *testing.T) {
	p := TrainParams{Epochs: 11, Radius0: 25, RadiusEnd: 1}
	if r := p.Radius(0, 11); r != 25 {
		t.Errorf("initial radius = %f", r)
	}
	if r := p.Radius(10, 11); r != 1 {
		t.Errorf("final radius = %f", r)
	}
	prev := math.Inf(1)
	for e := 0; e < 11; e++ {
		r := p.Radius(e, 11)
		if r > prev {
			t.Errorf("radius not monotone at %d", e)
		}
		prev = r
	}
}

func TestTrainParamsValidation(t *testing.T) {
	g, _ := NewGrid(5, 5)
	cb, _ := NewCodebook(g, 2)
	data := bio.RandomVectors(1, 10, 2)
	if err := TrainBatch(cb, data, 10, TrainParams{Epochs: 0}); err == nil {
		t.Error("zero epochs accepted")
	}
	if err := TrainBatch(cb, data, 7, TrainParams{Epochs: 1}); err == nil {
		t.Error("bad data shape accepted")
	}
	if err := TrainBatch(cb, data, 10, TrainParams{Epochs: 1, Radius0: 1, RadiusEnd: 5}); err == nil {
		t.Error("RadiusEnd > Radius0 accepted")
	}
}

func TestUMatrixShowsClusterBoundary(t *testing.T) {
	// Two tight clusters far apart: the U-matrix must have a high-valued
	// ridge somewhere (between the clusters) well above its minimum.
	n := 200
	data := make([]float64, n*2)
	rng := rand.New(rand.NewSource(11))
	for v := 0; v < n; v++ {
		base := 0.0
		if v >= n/2 {
			base = 10
		}
		data[v*2] = base + rng.NormFloat64()*0.05
		data[v*2+1] = base + rng.NormFloat64()*0.05
	}
	g, _ := NewGrid(8, 8)
	cb, _ := NewCodebook(g, 2)
	cb.InitLinear(data, n)
	if err := TrainBatch(cb, data, n, TrainParams{Epochs: 20}); err != nil {
		t.Fatal(err)
	}
	um := UMatrix(cb)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, row := range um {
		for _, v := range row {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	if hi < 10*lo+1e-9 {
		t.Errorf("U-matrix ridge not prominent: min=%g max=%g", lo, hi)
	}
}

func TestComponentPlane(t *testing.T) {
	g, _ := NewGrid(3, 2)
	cb, _ := NewCodebook(g, 2)
	for k := 0; k < g.Cells(); k++ {
		cb.Vector(k)[1] = float64(k)
	}
	cp := ComponentPlane(cb, 1)
	if cp[1][2] != float64(g.Index(2, 1)) {
		t.Errorf("component plane wrong: %v", cp)
	}
}

func TestQualityMetricsEdgeCases(t *testing.T) {
	g, _ := NewGrid(3, 3)
	cb, _ := NewCodebook(g, 2)
	if QuantizationError(cb, nil, 0) != 0 || TopographicError(cb, nil, 0) != 0 {
		t.Error("empty data should give 0")
	}
}

func TestWritePGMAndPPM(t *testing.T) {
	dir := t.TempDir()
	g, _ := NewGrid(4, 4)
	cb, _ := NewCodebook(g, 3)
	cb.InitRandom(5)
	ppm := filepath.Join(dir, "cb.ppm")
	if err := WriteCodebookPPM(ppm, cb); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ppm)
	if err != nil {
		t.Fatal(err)
	}
	if string(data[:2]) != "P6" || len(data) < 4*4*3 {
		t.Errorf("PPM malformed: %d bytes", len(data))
	}

	pgm := filepath.Join(dir, "um.pgm")
	if err := WritePGM(pgm, UMatrix(cb)); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(pgm)
	if err != nil {
		t.Fatal(err)
	}
	if string(data[:2]) != "P5" {
		t.Errorf("PGM malformed")
	}

	cb2, _ := NewCodebook(g, 2)
	if err := WriteCodebookPPM(filepath.Join(dir, "bad.ppm"), cb2); err == nil {
		t.Error("dim<3 accepted for PPM")
	}
	if err := WritePGM(filepath.Join(dir, "bad.pgm"), nil); err == nil {
		t.Error("empty matrix accepted for PGM")
	}
}

func TestVectorFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "vecs.bin")
	n, dim := 37, 5
	data := bio.RandomVectors(12, n, dim)
	if err := WriteVectorFile(path, data, n, dim); err != nil {
		t.Fatal(err)
	}
	vf, err := OpenVectorFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer vf.Close()
	if vf.N != n || vf.Dim != dim {
		t.Fatalf("dims = %d,%d", vf.N, vf.Dim)
	}
	whole, err := vf.ReadBlock(0, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if whole[i] != data[i] {
			t.Fatalf("value %d differs", i)
		}
	}
	blk, err := vf.ReadBlock(10, 20)
	if err != nil {
		t.Fatal(err)
	}
	for i := range blk {
		if blk[i] != data[10*dim+i] {
			t.Fatalf("block value %d differs", i)
		}
	}
	if _, err := vf.ReadBlock(-1, 5); err == nil {
		t.Error("negative start accepted")
	}
	if _, err := vf.ReadBlock(0, n+1); err == nil {
		t.Error("overrun accepted")
	}
}

func TestVectorFileRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "junk.bin")
	os.WriteFile(p, []byte("garbage data here"), 0o644)
	if _, err := OpenVectorFile(p); err == nil {
		t.Error("garbage accepted")
	}
}

func TestWriteVectorFileValidatesShape(t *testing.T) {
	if err := WriteVectorFile(filepath.Join(t.TempDir(), "x"), []float64{1, 2, 3}, 2, 2); err == nil {
		t.Error("bad shape accepted")
	}
}

func TestGaussianKernelProperties(t *testing.T) {
	f := func(d2raw, sigmaRaw uint8) bool {
		d2 := float64(d2raw)
		sigma := 1 + float64(sigmaRaw%20)
		h := gaussian(d2, sigma)
		if h < 0 || h > 1 {
			return false
		}
		// Monotone decreasing in distance.
		return gaussian(d2+1, sigma) <= h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCodebookFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g, _ := NewGridTopo(7, 5, Hex)
	cb, _ := NewCodebook(g, 9)
	cb.InitRandom(13)
	path := filepath.Join(dir, "cb.somc")
	if err := WriteCodebook(path, cb, 42); err != nil {
		t.Fatal(err)
	}
	back, epoch, err := ReadCodebook(path)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 42 {
		t.Errorf("epoch = %d", epoch)
	}
	if back.Grid != cb.Grid || back.Dim != cb.Dim {
		t.Fatalf("shape mismatch: %+v vs %+v", back.Grid, cb.Grid)
	}
	for i := range cb.Weights {
		if back.Weights[i] != cb.Weights[i] {
			t.Fatalf("weight %d differs", i)
		}
	}
}

func TestCodebookFileDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	g, _ := NewGrid(4, 4)
	cb, _ := NewCodebook(g, 3)
	cb.InitRandom(1)
	path := filepath.Join(dir, "cb.somc")
	if err := WriteCodebook(path, cb, 7); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	// Flip a weight byte: CRC must catch it.
	data[30] ^= 0xFF
	os.WriteFile(path, data, 0o644)
	if _, _, err := ReadCodebook(path); err == nil {
		t.Error("corruption not detected")
	}
	// Truncation must be caught too.
	os.WriteFile(path, data[:len(data)-10], 0o644)
	if _, _, err := ReadCodebook(path); err == nil {
		t.Error("truncation not detected")
	}
	// Garbage magic.
	os.WriteFile(path, []byte("garbage file content padded out"), 0o644)
	if _, _, err := ReadCodebook(path); err == nil {
		t.Error("garbage accepted")
	}
}

func TestHitMap(t *testing.T) {
	g, _ := NewGrid(2, 2)
	cb, _ := NewCodebook(g, 2)
	copy(cb.Vector(0), []float64{0, 0})
	copy(cb.Vector(1), []float64{1, 0})
	copy(cb.Vector(2), []float64{0, 1})
	copy(cb.Vector(3), []float64{1, 1})
	data := []float64{
		0.1, 0.1, // -> neuron 0
		0.9, 0.1, // -> neuron 1
		0.05, 0.02, // -> neuron 0
	}
	hm := HitMap(cb, data, 3)
	if hm[0][0] != 2 || hm[0][1] != 1 || hm[1][0] != 0 || hm[1][1] != 0 {
		t.Errorf("hit map = %v", hm)
	}
}

func TestClassifierSemiSupervised(t *testing.T) {
	// The paper's semi-supervised use case: train unsupervised, label with
	// a subset, classify held-out vectors.
	const n, dim, k = 400, 6, 4
	data, labels := bio.ClusteredVectors(50, n, dim, k, 0.03)
	g, _ := NewGrid(8, 8)
	cb, _ := NewCodebook(g, dim)
	cb.InitLinear(data, n)
	if err := TrainBatch(cb, data, n, TrainParams{Epochs: 15}); err != nil {
		t.Fatal(err)
	}
	// Label with the first half; evaluate on the second half.
	half := n / 2
	cl, err := NewClassifier(cb, data[:half*dim], labels[:half], half)
	if err != nil {
		t.Fatal(err)
	}
	pred := cl.PredictAll(data[half*dim:], n-half)
	acc := Accuracy(pred, labels[half:])
	if acc < 0.95 {
		t.Errorf("semi-supervised accuracy = %.2f on well-separated clusters", acc)
	}
}

func TestClassifierUnlabeledBMUFallsBack(t *testing.T) {
	g, _ := NewGrid(3, 1)
	cb, _ := NewCodebook(g, 1)
	copy(cb.Vector(0), []float64{0})
	copy(cb.Vector(1), []float64{0.5})
	copy(cb.Vector(2), []float64{1})
	// Only neuron 0 gets labeled examples.
	cl, err := NewClassifier(cb, []float64{0.01, 0.02}, []int{1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// A vector near neuron 2 (unlabeled) must fall back to the nearest
	// labeled neuron's label.
	if got := cl.Predict([]float64{0.99}); got != 1 {
		t.Errorf("fallback prediction = %d, want 1", got)
	}
}

func TestClassifierValidation(t *testing.T) {
	g, _ := NewGrid(2, 2)
	cb, _ := NewCodebook(g, 2)
	if _, err := NewClassifier(cb, []float64{1, 2}, []int{0, 1}, 2); err == nil {
		t.Error("bad shapes accepted")
	}
	if _, err := NewClassifier(cb, []float64{1, 2, 3, 4}, []int{0, -1}, 2); err == nil {
		t.Error("negative label accepted")
	}
	if Accuracy(nil, nil) != 0 || Accuracy([]int{1}, []int{1, 2}) != 0 {
		t.Error("accuracy edge cases wrong")
	}
}

func TestTopographicErrorBehavior(t *testing.T) {
	// A perfectly organized 1-D gradient map: first and second BMUs are
	// always neighbors -> topographic error 0.
	g, _ := NewGrid(5, 1)
	cb, _ := NewCodebook(g, 1)
	for k := 0; k < 5; k++ {
		cb.Vector(k)[0] = float64(k)
	}
	data := []float64{0.4, 1.6, 2.5, 3.4}
	if te := TopographicError(cb, data, 4); te != 0 {
		t.Errorf("organized map TE = %f", te)
	}
	// A scrambled map: swap neurons 0 and 4 so BMU pairs become distant.
	cb.Vector(0)[0], cb.Vector(4)[0] = 4, 0
	if te := TopographicError(cb, []float64{3.9, 0.1}, 2); te == 0 {
		t.Errorf("scrambled map should have TE > 0")
	}
}

func TestNewCodebookValidation(t *testing.T) {
	g, _ := NewGrid(2, 2)
	if _, err := NewCodebook(g, 0); err == nil {
		t.Error("zero dimension accepted")
	}
	if _, err := NewCodebook(g, -3); err == nil {
		t.Error("negative dimension accepted")
	}
}

func TestNormalizeZeroVector(t *testing.T) {
	v := []float64{0, 0, 0}
	normalize(v)
	if v[0] != 1 {
		t.Errorf("zero vector should normalize to e1, got %v", v)
	}
}
