package cas

import (
	"math/big"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mathcloud/internal/ratmat"
)

func evalOK(t *testing.T, src string, env Env) Value {
	t.Helper()
	v, err := Eval(src, env)
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	return v
}

func TestScalarArithmetic(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"1 + 2 * 3", "7"},
		{"(1 + 2) * 3", "9"},
		{"1/2 + 1/3", "5/6"},
		{"-3 + 1", "-2"},
		{"2 * -3", "-6"},
		{"10 - 4 - 3", "3"},
	}
	for _, tc := range cases {
		v := evalOK(t, tc.src, nil)
		if !v.IsScalar() || v.Scalar.RatString() != tc.want {
			t.Errorf("Eval(%q) = %s, want %s", tc.src, v, tc.want)
		}
	}
}

func TestMatrixExpressions(t *testing.T) {
	v := evalOK(t, "invert(hilbert(4)) * hilbert(4)", nil)
	if v.IsScalar() || !v.Matrix.IsIdentity() {
		t.Error("H⁻¹·H is not the identity")
	}

	v = evalOK(t, "hilbert(3) - hilbert(3)", nil)
	if !v.Matrix.Equal(ratmat.New(3, 3)) {
		t.Error("H - H is not zero")
	}

	v = evalOK(t, "2 * identity(3)", nil)
	if v.Matrix.At(0, 0).Cmp(big.NewRat(2, 1)) != 0 {
		t.Error("scalar-matrix product wrong")
	}

	v = evalOK(t, "trace(identity(5))", nil)
	if !v.IsScalar() || v.Scalar.RatString() != "5" {
		t.Errorf("trace = %s, want 5", v)
	}

	v = evalOK(t, "hilbert(4)'", nil)
	if !v.Matrix.Equal(ratmat.Hilbert(4)) {
		t.Error("Hilbert transpose should equal itself (symmetric)")
	}
}

func TestSubmatrixAssemble(t *testing.T) {
	env := Env{"M": {Matrix: ratmat.Hilbert(6)}}
	v := evalOK(t,
		"assemble(submatrix(M,0,3,0,3), submatrix(M,0,3,3,6), submatrix(M,3,6,0,3), submatrix(M,3,6,3,6))",
		env)
	if !v.Matrix.Equal(ratmat.Hilbert(6)) {
		t.Error("submatrix/assemble round trip failed")
	}
}

func TestEnvironmentVariables(t *testing.T) {
	env := Env{"A": {Matrix: ratmat.Identity(2)}}
	v := evalOK(t, "A + A", env)
	want := ratmat.Identity(2).Scale(big.NewRat(2, 1))
	if !v.Matrix.Equal(want) {
		t.Error("A + A wrong")
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"", "unexpected"},
		{"foo", `undefined variable "foo"`},
		{"frob(1)", `unknown function "frob"`},
		{"hilbert(0)", "out of range"},
		{"hilbert(1) + 1", "scalar and matrix"},
		{"invert(hilbert(2) - hilbert(2))", "singular"},
		{"hilbert(2) * hilbert(3)", "inner dimensions"},
		{"trace(zeros(2,3))", "non-square"},
		{"1 +", "unexpected"},
		{"(1", "expected ')'"},
		{"3'", "cannot transpose a scalar"},
		{"hilbert(1) @", "unexpected character"},
		{"invert(2)", "must be a matrix"},
		{"hilbert(hilbert(1))", "must be an integer"},
	}
	for _, tc := range cases {
		_, err := Eval(tc.src, nil)
		if err == nil {
			t.Errorf("Eval(%q) succeeded, want error %q", tc.src, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Eval(%q) error = %q, want substring %q", tc.src, err, tc.want)
		}
	}
}

func TestDeterminantAndRank(t *testing.T) {
	// det(hilbert(3)) = 1/2160.
	v := evalOK(t, "det(hilbert(3))", nil)
	if !v.IsScalar() || v.Scalar.RatString() != "1/2160" {
		t.Errorf("det = %s, want 1/2160", v)
	}
	v = evalOK(t, "det(identity(5))", nil)
	if v.Scalar.RatString() != "1" {
		t.Errorf("det(I) = %s", v)
	}
	v = evalOK(t, "det(hilbert(3) - hilbert(3))", nil)
	if v.Scalar.RatString() != "0" {
		t.Errorf("det(0) = %s", v)
	}
	v = evalOK(t, "rank(hilbert(4))", nil)
	if v.Scalar.RatString() != "4" {
		t.Errorf("rank(H4) = %s", v)
	}
	v = evalOK(t, "rank(zeros(3,5))", nil)
	if v.Scalar.RatString() != "0" {
		t.Errorf("rank(0) = %s", v)
	}
	if _, err := Eval("det(zeros(2,3))", nil); err == nil {
		t.Error("det of non-square accepted")
	}
}

// TestPropertyEvalNeverPanics throws random expression soup at the CAS:
// parse/eval must reject or succeed, never panic.
func TestPropertyEvalNeverPanics(t *testing.T) {
	fragments := []string{
		"hilbert", "identity", "invert", "trace", "det", "rank", "zeros",
		"submatrix", "assemble", "transpose", "dim", "A", "B", "x",
		"1", "2", "1/2", "3.5", "(", ")", ",", "+", "-", "*", "'",
	}
	env := Env{"A": {Matrix: ratmat.Hilbert(2)}, "B": {Matrix: ratmat.Identity(2)}}
	prop := func(seed int64) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("cas panicked: %v", r)
				ok = false
			}
		}()
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(15)
		parts := make([]string, n)
		for i := range parts {
			parts[i] = fragments[rng.Intn(len(fragments))]
		}
		_, _ = Eval(strings.Join(parts, " "), env)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
