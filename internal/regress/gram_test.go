package regress

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func randomSample(rng *rand.Rand, n, d int) ([][]float64, []float64) {
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, d)
		for j := range row {
			row[j] = 20 * (rng.Float64() - 0.5)
		}
		x[i] = row
		y[i] = 3 + rng.NormFloat64()
		for j, v := range row {
			y[i] += float64(j+1) * v
		}
	}
	return x, y
}

func gramOf(x [][]float64, y []float64, d int) *Gram {
	g := NewGram(d)
	for i, row := range x {
		g.Add(row, y[i])
	}
	return g
}

// TestTrainGramMatchesTrain is the fast-path property test: on random
// well-conditioned parts, the O(d³) sufficient-statistics solve must agree
// with the full design-matrix pass within 1e-9 — for OLS and ridge alike.
func TestTrainGramMatchesTrain(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, trainer := range []LinearTrainer{{}, {Ridge: 0.25}} {
		for trial := 0; trial < 50; trial++ {
			n := 5 + rng.Intn(60)
			d := 1 + rng.Intn(4)
			x, y := randomSample(rng, n, d)

			full, err := trainer.Train(x, y)
			if err != nil {
				t.Fatalf("Train: %v", err)
			}
			fast, err := trainer.TrainGram(gramOf(x, y, d))
			if err != nil {
				t.Fatalf("TrainGram: %v", err)
			}
			fw, gw := full.(*Linear).W, fast.(*Linear).W
			for i := range fw {
				if math.Abs(fw[i]-gw[i]) > 1e-9 {
					t.Fatalf("trainer %s trial %d: weight %d differs: full %v fast %v",
						trainer.Name(), trial, i, fw[i], gw[i])
				}
			}
			if full.Family() != fast.Family() {
				t.Fatalf("family mismatch: %s vs %s", full.Family(), fast.Family())
			}
		}
	}
}

// TestGramRowOrderBitwiseIdentical pins the stronger claim the discovery
// engine relies on for byte-identical output: a Gram accumulated in row
// order yields *bitwise* the same weights as Train on the same rows.
func TestGramRowOrderBitwiseIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	trainer := LinearTrainer{}
	for trial := 0; trial < 20; trial++ {
		x, y := randomSample(rng, 30, 3)
		full, err := trainer.Train(x, y)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := trainer.TrainGram(gramOf(x, y, 3))
		if err != nil {
			t.Fatal(err)
		}
		fw, gw := full.(*Linear).W, fast.(*Linear).W
		for i := range fw {
			if fw[i] != gw[i] {
				t.Fatalf("trial %d: weight %d not bitwise equal: %v vs %v", trial, i, fw[i], gw[i])
			}
		}
	}
}

// TestGramSubSibling checks the parent − child derivation: subtracting one
// child's statistics from the parent's must match the directly accumulated
// sibling within floating-point cancellation tolerance, and a model trained
// from the derived statistics must stay within 1e-9 of the full pass.
func TestGramSubSibling(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	trainer := LinearTrainer{}
	for trial := 0; trial < 30; trial++ {
		n, d := 40+rng.Intn(40), 1+rng.Intn(3)
		x, y := randomSample(rng, n, d)
		// Both sides stay comfortably overdetermined; tiny siblings are
		// rejected by TrainGram (see TestTrainGramUnderdetermined) and served
		// by the full pass instead.
		margin := d + 5
		cut := margin + rng.Intn(n-2*margin)

		parent := gramOf(x, y, d)
		child := gramOf(x[:cut], y[:cut], d)
		derived := parent.Clone()
		derived.Sub(child)

		direct := gramOf(x[cut:], y[cut:], d)
		if derived.N != direct.N {
			t.Fatalf("N = %d, want %d", derived.N, direct.N)
		}
		fromDerived, err := trainer.TrainGram(derived)
		if err != nil {
			t.Fatalf("TrainGram(derived): %v", err)
		}
		full, err := trainer.Train(x[cut:], y[cut:])
		if err != nil {
			t.Fatal(err)
		}
		fw, dw := full.(*Linear).W, fromDerived.(*Linear).W
		for i := range fw {
			if math.Abs(fw[i]-dw[i]) > 1e-9 {
				t.Fatalf("trial %d: derived sibling weight %d drifted: %v vs %v", trial, i, fw[i], dw[i])
			}
		}
	}
}

func TestGramSubWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sub across widths did not panic")
		}
	}()
	NewGram(2).Sub(NewGram(3))
}

func TestTrainGramDegenerate(t *testing.T) {
	trainer := LinearTrainer{}
	if _, err := trainer.TrainGram(nil); !errors.Is(err, ErrGramUnsupported) {
		t.Errorf("nil gram err = %v", err)
	}
	if _, err := trainer.TrainGram(NewGram(2)); !errors.Is(err, ErrGramUnsupported) {
		t.Errorf("empty gram err = %v", err)
	}
	if _, err := trainer.TrainGram(gramOf([][]float64{{}, {}}, []float64{1, 2}, 0)); !errors.Is(err, ErrGramUnsupported) {
		t.Errorf("width-0 gram err = %v (the minimax constant needs the full pass)", err)
	}
	// A rank-deficient part (duplicate rows) must error so the caller falls
	// back to the design-matrix QR/jitter path instead of a bogus solve.
	x := [][]float64{{1, 2}, {1, 2}, {1, 2}, {1, 2}}
	y := []float64{1, 2, 3, 4}
	if _, err := trainer.TrainGram(gramOf(x, y, 2)); err == nil {
		t.Error("singular gram did not error")
	}
}

// TestTrainGramUnderdetermined pins the guard against tiny parts: with
// fewer rows than parameters the true Gram matrix is singular, and a
// subtraction-derived Gram could pass Cholesky on cancellation noise alone,
// so TrainGram must refuse and leave these parts to the full pass.
func TestTrainGramUnderdetermined(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, y := randomSample(rng, 2, 2) // 2 rows, 3 parameters
	if _, err := (LinearTrainer{}).TrainGram(gramOf(x, y, 2)); !errors.Is(err, ErrGramUnsupported) {
		t.Errorf("underdetermined gram err = %v, want ErrGramUnsupported", err)
	}
}
