package temporal

import (
	"testing"
	"testing/quick"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestExternalConstraintValidate(t *testing.T) {
	cases := []struct {
		name string
		c    ExternalConstraint
		ok   bool
	}{
		{"valid", ExternalConstraint{DeltaP: ms(50), DeltaB: ms(120)}, true},
		{"zero deltaP", ExternalConstraint{DeltaB: ms(120)}, false},
		{"deltaB equals deltaP", ExternalConstraint{DeltaP: ms(50), DeltaB: ms(50)}, false},
		{"deltaB below deltaP", ExternalConstraint{DeltaP: ms(50), DeltaB: ms(40)}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.c.Validate(); (err == nil) != tc.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestExternalConstraintDelta(t *testing.T) {
	c := ExternalConstraint{DeltaP: ms(50), DeltaB: ms(120)}
	if c.Delta() != ms(70) {
		t.Fatalf("Delta() = %v, want 70ms", c.Delta())
	}
}

func TestInterObjectConstraintValidate(t *testing.T) {
	if err := (InterObjectConstraint{I: "a", J: "b", Delta: ms(10)}).Validate(); err != nil {
		t.Fatalf("valid constraint rejected: %v", err)
	}
	if err := (InterObjectConstraint{I: "a", J: "a", Delta: ms(10)}).Validate(); err == nil {
		t.Fatal("self-constraint accepted")
	}
	if err := (InterObjectConstraint{I: "a", J: "b"}).Validate(); err == nil {
		t.Fatal("zero delta accepted")
	}
}

func TestLemma1ImpliesTheorem1(t *testing.T) {
	// Lemma 1's sufficient condition (p ≤ (δ+e)/2) implies Theorem 1's
	// condition with the universal phase-variance bound v = p − e.
	f := func(p16, e16, d16 uint16) bool {
		p := time.Duration(p16)*time.Millisecond + time.Millisecond
		e := time.Duration(e16) % p
		if e <= 0 {
			e = time.Millisecond
		}
		d := time.Duration(d16) * time.Millisecond
		if !Lemma1Sufficient(p, e, d) {
			return true // vacuous
		}
		v := p - e // Inequality 2.1
		return Theorem1(p, v, d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLemma2ImpliesTheorem4(t *testing.T) {
	// Lemma 2's sufficient condition (r ≤ (δB+e+e′−ℓ)/2 − p) implies
	// Theorem 4's condition with the universal phase-variance bounds
	// v = p − e and v′ = r − e′.
	f := func(p16, r16, e16, e2, l16, d16 uint16) bool {
		p := time.Duration(p16)*time.Millisecond + time.Millisecond
		r := time.Duration(r16)*time.Millisecond + time.Millisecond
		e := time.Duration(e16)%p + 1
		ePrime := time.Duration(e2)%r + 1
		ell := time.Duration(l16) * time.Microsecond
		d := time.Duration(d16) * time.Millisecond
		if !Lemma2Sufficient(r, p, e, ePrime, ell, d) {
			return true // vacuous
		}
		return Theorem4(r, p, p-e, r-ePrime, ell, d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTheorem1Boundary(t *testing.T) {
	if !Theorem1(ms(40), ms(10), ms(50)) {
		t.Fatal("p = δ − v rejected (condition is ≤)")
	}
	if Theorem1(ms(41), ms(10), ms(50)) {
		t.Fatal("p > δ − v accepted")
	}
}

func TestMaxPrimaryPeriod(t *testing.T) {
	if got := MaxPrimaryPeriod(ms(50), ms(10)); got != ms(40) {
		t.Fatalf("MaxPrimaryPeriod = %v, want 40ms", got)
	}
	if got := MaxPrimaryPeriod(ms(10), ms(20)); got >= 0 {
		t.Fatalf("unsatisfiable constraint returned non-negative period %v", got)
	}
}

func TestTheorem4Boundary(t *testing.T) {
	// r ≤ δB − v' − p − v − ℓ
	deltaB, p, v, vp, ell := ms(200), ms(50), ms(5), ms(3), ms(10)
	max := MaxBackupPeriod(deltaB, p, v, vp, ell)
	if max != ms(132) {
		t.Fatalf("MaxBackupPeriod = %v, want 132ms", max)
	}
	if !Theorem4(max, p, v, vp, ell, deltaB) {
		t.Fatal("boundary r rejected")
	}
	if Theorem4(max+1, p, v, vp, ell, deltaB) {
		t.Fatal("r beyond boundary accepted")
	}
}

func TestTheorem5MatchesTheorem4WithMaxPrimaryPeriod(t *testing.T) {
	// With v' = 0 and p = δP − v, Theorem 4 reduces to Theorem 5.
	f := func(dp16, db16, v16, l16 uint16) bool {
		dp := time.Duration(dp16)*time.Millisecond + time.Millisecond
		db := dp + time.Duration(db16)*time.Millisecond + time.Millisecond
		v := time.Duration(v16) % dp
		ell := time.Duration(l16) * time.Microsecond
		c := ExternalConstraint{DeltaP: dp, DeltaB: db}
		p := MaxPrimaryPeriod(dp, v)
		t4 := MaxBackupPeriod(db, p, v, 0, ell)
		t5 := MaxBackupPeriodTheorem5(c, ell)
		return t4 == t5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTheorem5(t *testing.T) {
	c := ExternalConstraint{DeltaP: ms(50), DeltaB: ms(120)}
	if !Theorem5(ms(60), ms(10), c) {
		t.Fatal("r = δ − ℓ rejected")
	}
	if Theorem5(ms(61), ms(10), c) {
		t.Fatal("r > δ − ℓ accepted")
	}
}

func TestTheorem6(t *testing.T) {
	if !Theorem6Primary(ms(40), ms(10), ms(45), ms(5), ms(50)) {
		t.Fatal("Theorem6Primary rejected boundary periods")
	}
	if Theorem6Primary(ms(41), ms(10), ms(45), ms(5), ms(50)) {
		t.Fatal("Theorem6Primary accepted p_i over bound")
	}
	if Theorem6Primary(ms(40), ms(10), ms(46), ms(5), ms(50)) {
		t.Fatal("Theorem6Primary accepted p_j over bound")
	}
	if !Theorem6Backup(ms(50), 0, ms(50), 0, ms(50)) {
		t.Fatal("Theorem6Backup rejected boundary periods with zero variance")
	}
}

func TestLemma3ImpliesTheorem6WithUniversalBound(t *testing.T) {
	f := func(p16, e16, d16 uint16) bool {
		p := time.Duration(p16)*time.Millisecond + time.Millisecond
		e := time.Duration(e16) % p
		if e <= 0 {
			e = time.Millisecond
		}
		d := time.Duration(d16) * time.Millisecond
		if !Lemma3SufficientPrimary(p, e, d) {
			return true
		}
		return p <= d-(p-e)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConvertInterObject(t *testing.T) {
	bi, bj := ConvertInterObject(InterObjectConstraint{I: "a", J: "b", Delta: ms(30)})
	if bi != ms(30) || bj != ms(30) {
		t.Fatalf("ConvertInterObject = (%v, %v), want (30ms, 30ms)", bi, bj)
	}
}
