package rebalance

import (
	"errors"
	"strings"
	"testing"
)

func TestParseSpecNone(t *testing.T) {
	for _, s := range []string{"", "none", "  none  ", "   "} {
		spec, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s, err)
		}
		if !spec.None() {
			t.Errorf("ParseSpec(%q).None() = false", s)
		}
		if spec.New() != nil {
			t.Errorf("ParseSpec(%q).New() != nil", s)
		}
	}
}

// TestCanonical pins the one spelling policies are keyed by: none as "",
// parameters shortest-form, errors as ParseSpec's.
func TestCanonical(t *testing.T) {
	for in, want := range map[string]string{
		"":               "",
		"none":           "",
		" none ":         "",
		"periodic:04":    "periodic:4",
		"threshold:1.50": "threshold:1.5",
		"diffusion:1.2":  "diffusion:1.2/3",
	} {
		if got, err := Canonical(in); err != nil || got != want {
			t.Errorf("Canonical(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	if _, err := Canonical("bogus:1"); !errors.Is(err, ErrSpec) {
		t.Errorf("Canonical(bogus:1) error %v, want ErrSpec", err)
	}
}

func TestParseSpecForms(t *testing.T) {
	cases := []struct {
		in    string
		want  Spec
		canon string
	}{
		{"periodic:4", Spec{Kind: KindPeriodic, Every: 4}, "periodic:4"},
		{" periodic : 10 ", Spec{Kind: KindPeriodic, Every: 10}, "periodic:10"},
		{"threshold:1.5", Spec{Kind: KindThreshold, Factor: 1.5}, "threshold:1.5"},
		{"threshold:2", Spec{Kind: KindThreshold, Factor: 2}, "threshold:2"},
		{"diffusion:1.2", Spec{Kind: KindDiffusion, Factor: 1.2, Rounds: DefaultRounds}, "diffusion:1.2/3"},
		{"diffusion:1.2/5", Spec{Kind: KindDiffusion, Factor: 1.2, Rounds: 5}, "diffusion:1.2/5"},
		{"diffusion:02.50/05", Spec{Kind: KindDiffusion, Factor: 2.5, Rounds: 5}, "diffusion:2.5/5"},
	}
	for _, c := range cases {
		spec, err := ParseSpec(c.in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", c.in, err)
		}
		if spec != c.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", c.in, spec, c.want)
		}
		if got := spec.String(); got != c.canon {
			t.Errorf("ParseSpec(%q).String() = %q, want %q", c.in, got, c.canon)
		}
		// Canonical form round-trips to the same spec.
		again, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("round-trip ParseSpec(%q): %v", spec.String(), err)
		}
		if again != spec {
			t.Errorf("round trip of %q: %+v != %+v", c.in, again, spec)
		}
		if spec.New() == nil {
			t.Errorf("ParseSpec(%q).New() = nil for a non-none spec", c.in)
		}
		if name := spec.New().Name(); name != c.canon {
			t.Errorf("policy Name() = %q, want %q", name, c.canon)
		}
	}
}

func TestParseSpecRejections(t *testing.T) {
	long := "periodic:" + strings.Repeat("9", maxSpecLen)
	bad := []string{
		"none:1",           // none takes no parameters
		"periodic",         // missing cadence
		"periodic:",        // empty cadence
		"periodic:x",       // non-integer cadence
		"periodic:0",       // zero cadence
		"periodic:-3",      // negative cadence
		"periodic:2000000", // above maxEvery
		"threshold",        // missing factor
		"threshold:",       // empty factor
		"threshold:abc",    // non-numeric
		"threshold:NaN",    // not finite
		"threshold:+Inf",   // not finite
		"threshold:1",      // must exceed 1
		"threshold:0.5",    // must exceed 1
		"threshold:1e9",    // above maxFactor
		"diffusion",        // missing factor
		"diffusion:1.5/0",  // rounds below 1
		"diffusion:1.5/65", // rounds above maxRounds
		"diffusion:1.5/x",  // non-integer rounds
		"bogus:3",          // unknown kind
		"bogus",            // unknown kind, no params
		long,               // over maxSpecLen
	}
	for _, s := range bad {
		spec, err := ParseSpec(s)
		if err == nil {
			t.Errorf("ParseSpec(%q) accepted: %+v", s, spec)
			continue
		}
		if !errors.Is(err, ErrSpec) {
			t.Errorf("ParseSpec(%q) error %v does not wrap ErrSpec", s, err)
		}
		if spec != (Spec{}) {
			t.Errorf("ParseSpec(%q) returned non-zero spec alongside error", s)
		}
	}
}
