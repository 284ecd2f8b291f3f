package rebalance

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ErrSpec is the sentinel every policy-spec parse error wraps; callers map
// errors.Is(err, ErrSpec) to a 400/usage response without string matching
// (the same convention as sweep.ErrSpec).
var ErrSpec = errors.New("invalid rebalance spec")

// Policy kind names as they appear in specs.
const (
	KindNone      = "none"
	KindPeriodic  = "periodic"
	KindThreshold = "threshold"
	KindDiffusion = "diffusion"
)

const (
	// maxSpecLen bounds the raw spec string before parsing.
	maxSpecLen = 256
	// maxEvery bounds the periodic cadence; a million-frame period is
	// indistinguishable from "none" for any trace we accept.
	maxEvery = 1 << 20
	// maxFactor bounds imbalance triggers; beyond this the policy never
	// fires on any physical workload.
	maxFactor = 1e6
	// maxRounds bounds diffusion sweeps per epoch.
	maxRounds = 64
	// DefaultRounds is the diffusion sweep count when the spec omits it.
	DefaultRounds = 3
)

// Spec is one parsed rebalance policy specification. The zero Spec is not
// valid; use ParseSpec or construct with an explicit Kind.
type Spec struct {
	// Kind is one of the Kind* constants.
	Kind string
	// Every is the periodic cadence in frames (periodic only).
	Every int
	// Factor is the imbalance trigger (threshold and diffusion).
	Factor float64
	// Rounds is the sweep bound per epoch (diffusion only).
	Rounds int
}

// ParseSpec decodes a policy spec string:
//
//	""                  → none (static mapping)
//	"none"              → none
//	"periodic:K"        → re-bisect every K frames (K ≥ 1)
//	"threshold:F"       → re-bisect when imbalance exceeds F (F > 1)
//	"diffusion:F"       → diffuse when imbalance exceeds F, 3 sweeps
//	"diffusion:F/R"     → diffuse when imbalance exceeds F, R sweeps (1–64)
//
// The rounds separator is "/" rather than "," so a spec never clashes with
// the comma-separated axis lists the CLI and sweep grids use.
//
// Every error wraps ErrSpec. The canonical form of a parsed spec is
// Spec.String, which round-trips through ParseSpec.
func ParseSpec(spec string) (Spec, error) {
	if len(spec) > maxSpecLen {
		return Spec{}, fmt.Errorf("%w: spec longer than %d bytes", ErrSpec, maxSpecLen)
	}
	s := strings.TrimSpace(spec)
	if s == "" || s == KindNone {
		return Spec{Kind: KindNone}, nil
	}
	kind, params := s, ""
	if i := strings.IndexByte(s, ':'); i >= 0 {
		kind, params = strings.TrimSpace(s[:i]), strings.TrimSpace(s[i+1:])
	}
	switch kind {
	case KindNone:
		return Spec{}, fmt.Errorf("%w: %q takes no parameters", ErrSpec, KindNone)
	case KindPeriodic:
		k, err := parseEvery(params)
		if err != nil {
			return Spec{}, err
		}
		return Spec{Kind: KindPeriodic, Every: k}, nil
	case KindThreshold:
		f, err := parseFactor(params)
		if err != nil {
			return Spec{}, err
		}
		return Spec{Kind: KindThreshold, Factor: f}, nil
	case KindDiffusion:
		fPart, rPart := params, ""
		if i := strings.IndexByte(params, '/'); i >= 0 {
			fPart, rPart = strings.TrimSpace(params[:i]), strings.TrimSpace(params[i+1:])
		}
		f, err := parseFactor(fPart)
		if err != nil {
			return Spec{}, err
		}
		rounds := DefaultRounds
		if rPart != "" {
			rounds, err = parseRounds(rPart)
			if err != nil {
				return Spec{}, err
			}
		}
		return Spec{Kind: KindDiffusion, Factor: f, Rounds: rounds}, nil
	default:
		return Spec{}, fmt.Errorf("%w: unknown policy %q (want none, periodic:K, threshold:F, or diffusion:F[/R])", ErrSpec, kind)
	}
}

// parseEvery decodes the periodic cadence.
func parseEvery(s string) (int, error) {
	if s == "" {
		return 0, fmt.Errorf("%w: periodic needs a frame cadence (periodic:K)", ErrSpec)
	}
	k, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("%w: cadence %q is not an integer", ErrSpec, s)
	}
	if k < 1 {
		return 0, fmt.Errorf("%w: cadence %d is not positive", ErrSpec, k)
	}
	if k > maxEvery {
		return 0, fmt.Errorf("%w: cadence %d exceeds the %d limit", ErrSpec, k, maxEvery)
	}
	return k, nil
}

// parseFactor decodes an imbalance trigger factor.
func parseFactor(s string) (float64, error) {
	if s == "" {
		return 0, fmt.Errorf("%w: missing imbalance factor", ErrSpec)
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("%w: factor %q is not a finite number", ErrSpec, s)
	}
	if f <= 1 {
		return 0, fmt.Errorf("%w: factor %g must exceed 1 (imbalance is max/mean)", ErrSpec, f)
	}
	if f > maxFactor {
		return 0, fmt.Errorf("%w: factor %g exceeds the %g limit", ErrSpec, f, maxFactor)
	}
	return f, nil
}

// parseRounds decodes the diffusion sweep bound.
func parseRounds(s string) (int, error) {
	r, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("%w: sweep count %q is not an integer", ErrSpec, s)
	}
	if r < 1 || r > maxRounds {
		return 0, fmt.Errorf("%w: sweep count %d outside [1,%d]", ErrSpec, r, maxRounds)
	}
	return r, nil
}

// String returns the canonical spec form; ParseSpec(s.String()) == s for any
// spec ParseSpec produced.
func (s Spec) String() string {
	switch s.Kind {
	case KindPeriodic:
		return fmt.Sprintf("%s:%d", KindPeriodic, s.Every)
	case KindThreshold:
		return KindThreshold + ":" + strconv.FormatFloat(s.Factor, 'g', -1, 64)
	case KindDiffusion:
		return fmt.Sprintf("%s:%s/%d", KindDiffusion, strconv.FormatFloat(s.Factor, 'g', -1, 64), s.Rounds)
	default:
		return KindNone
	}
}

// Canonical returns the one spelling every consumer keys a policy by: ""
// for none (so documents that omit the field stay unchanged) and
// Spec.String otherwise. Errors are ParseSpec's.
func Canonical(spec string) (string, error) {
	s, err := ParseSpec(spec)
	if err != nil || s.None() {
		return "", err
	}
	return s.String(), nil
}

// None reports whether the spec selects no rebalancing (static mapping).
func (s Spec) None() bool { return s.Kind == "" || s.Kind == KindNone }

// New instantiates the policy the spec describes, or nil for a none spec.
func (s Spec) New() Policy {
	switch s.Kind {
	case KindPeriodic:
		return Periodic{Every: s.Every}
	case KindThreshold:
		return Threshold{Factor: s.Factor}
	case KindDiffusion:
		return Diffusion{Factor: s.Factor, Rounds: s.Rounds}
	default:
		return nil
	}
}
