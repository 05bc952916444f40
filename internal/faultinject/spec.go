package faultinject

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// ParseSpec parses the compact fault-schedule syntax used by the
// SPARSEORDER_FAULTS environment variable and cmd/study's -faults flag:
//
//	seed=N;POINT=MODE[:RATE[:AFTER[:PARAM]]];...
//
// For example
//
//	seed=7;reorder/order=error:0.4;journal/sync=error:1:5
//
// arms a plan with seed 7 that fails ~40% of ordering computations
// (deterministically, by matrix/algorithm key) and fails the sixth and
// every later journal fsync. Modes: error, enospc, shortwrite, panic,
// delay (PARAM = milliseconds) and alloc (PARAM = MiB). RATE defaults to
// 1, AFTER to 0, PARAM to the mode default. POINT must be one of the wired
// points (the Point constants), so a misspelt point is an error rather than
// a chaos run that injects nothing. Empty clauses are ignored, so trailing
// semicolons are harmless. An empty spec yields a nil plan (fault injection
// stays off).
func ParseSpec(spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var seed int64
	var rules []Rule
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		k, v, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("faultinject: clause %q is not point=mode[:rate[:after[:param]]]", clause)
		}
		if k == "seed" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: bad seed %q: %v", v, err)
			}
			seed = n
			continue
		}
		if !slices.Contains(points, Point(k)) {
			return nil, fmt.Errorf("faultinject: unknown fault point %q in %q", k, clause)
		}
		r := Rule{Point: Point(k), Rate: 1}
		parts := strings.Split(v, ":")
		mode, err := parseMode(parts[0])
		if err != nil {
			return nil, err
		}
		r.Mode = mode
		if len(parts) > 1 && parts[1] != "" {
			rate, err := strconv.ParseFloat(parts[1], 64)
			if err != nil || !(rate >= 0 && rate <= 1) { // NaN fails both
				return nil, fmt.Errorf("faultinject: bad rate %q in %q (want 0..1)", parts[1], clause)
			}
			r.Rate = rate
		}
		if len(parts) > 2 && parts[2] != "" {
			after, err := strconv.ParseUint(parts[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: bad after %q in %q", parts[2], clause)
			}
			r.After = after
		}
		if len(parts) > 3 && parts[3] != "" {
			param, err := strconv.Atoi(parts[3])
			if err != nil || param < 0 {
				return nil, fmt.Errorf("faultinject: bad param %q in %q", parts[3], clause)
			}
			r.Param = param
		}
		if len(parts) > 4 {
			return nil, fmt.Errorf("faultinject: too many fields in %q", clause)
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("faultinject: spec %q arms no fault points", spec)
	}
	return NewPlan(seed, rules...), nil
}

func parseMode(s string) (Mode, error) {
	switch s {
	case "error":
		return ModeError, nil
	case "enospc":
		return ModeENOSPC, nil
	case "shortwrite":
		return ModeShortWrite, nil
	case "panic":
		return ModePanic, nil
	case "delay":
		return ModeDelay, nil
	case "alloc":
		return ModeAlloc, nil
	}
	return 0, fmt.Errorf("faultinject: unknown mode %q (want error, enospc, shortwrite, panic, delay or alloc)", s)
}
