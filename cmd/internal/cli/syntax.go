package cli

import (
	"fmt"
	"strconv"
	"strings"

	"carat"
	"carat/internal/repl"
)

// The parsers below read the shared flags' key=value syntaxes; caratsim's
// package doc lists every key. Each error names the flag it came from.

// parseFaults adds the -faults settings to the plan.
func parseFaults(s string, f *carat.FaultPlan) error {
	fields := map[string]any{
		"mttf":      &f.CrashMTTFMS,
		"mttr":      &f.CrashMTTRMS,
		"loss":      &f.MsgLossProb,
		"retrans":   &f.MsgRetransmitMS,
		"delayp":    &f.MsgExtraDelayProb,
		"delayms":   &f.MsgExtraDelayMS,
		"prepto":    &f.PrepareTimeoutMS,
		"lockto":    &f.LockWaitTimeoutMS,
		"backoff":   &f.RetryBackoffMS,
		"probeloss": &f.ProbeLossProb,
		"probeout":  &f.ProbeLossUntilMS,
		"fseed":     &f.Seed,
	}
	for _, item := range items(s, ",") {
		key, val, err := keyValue(item)
		switch {
		case err != nil:
		case key == "crash":
			var c carat.SiteCrash
			var site string
			if site, c.AtMS, c.DownForMS, err = window(val, "SITE@AT+DOWN"); err == nil {
				c.Site, err = strconv.Atoi(site)
			}
			f.Crashes = append(f.Crashes, c)
		default:
			err = set(fields, key, val)
		}
		if err != nil {
			return fmt.Errorf("faults: %w", err)
		}
	}
	return nil
}

// parsePartitions adds the -partition entries to the plan: scheduled
// splits GROUPS@AT+HEAL and the key=value options of the random partition
// process and the failure detector.
func parsePartitions(s string, f *carat.FaultPlan) error {
	fields := map[string]any{
		"mtbf":    &f.PartitionMTBFMS,
		"mean":    &f.PartitionMeanMS,
		"split":   &f.PartitionSplitProb,
		"hb":      &f.HeartbeatIntervalMS,
		"suspect": &f.SuspectAfterMS,
	}
	for _, item := range items(s, ";") {
		var err error
		if key, val, ok := strings.Cut(item, "="); ok && !strings.Contains(key, "@") {
			err = set(fields, key, val)
		} else {
			var ps carat.PartitionSchedule
			var groups string
			if groups, ps.AtMS, ps.HealAfterMS, err = window(item, "GROUPS@AT+HEAL"); err == nil {
				ps.Groups, err = siteGroups(groups)
			}
			f.Partitions = append(f.Partitions, ps)
		}
		if err != nil {
			return fmt.Errorf("partition: %w", err)
		}
	}
	return nil
}

// siteGroups parses the |-separated site lists of a partition split.
func siteGroups(s string) ([][]int, error) {
	var groups [][]int
	for _, grp := range strings.Split(s, "|") {
		var ids []int
		for _, site := range items(grp, ",") {
			id, err := strconv.Atoi(site)
			if err != nil {
				return nil, fmt.Errorf("site: %w", err)
			}
			ids = append(ids, id)
		}
		if len(ids) > 0 {
			groups = append(groups, ids)
		}
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("%q names no sites", s)
	}
	return groups, nil
}

// parseGraySites adds the -graysites windows to the plan.
func parseGraySites(s string, f *carat.FaultPlan) error {
	for _, item := range items(s, ";") {
		g, err := graySite(item)
		if err != nil {
			return fmt.Errorf("graysites: %w", err)
		}
		f.GraySites = append(f.GraySites, g)
	}
	return nil
}

// graySite parses one SITE@AT+FOR*FACTOR or SITE@AT+FOR*CPU/DISK window.
func graySite(item string) (carat.GrayFailure, error) {
	var g carat.GrayFailure
	timing, factors, ok := strings.Cut(item, "*")
	if !ok {
		return g, fmt.Errorf("%q wants SITE@AT+FOR*FACTOR", item)
	}
	site, at, dur, err := window(timing, "SITE@AT+FOR*FACTOR")
	if err != nil {
		return g, err
	}
	g.AtMS, g.ForMS = at, dur
	if g.Site, err = strconv.Atoi(strings.TrimSpace(site)); err != nil {
		return g, fmt.Errorf("site: %w", err)
	}
	cpu, disk, split := strings.Cut(factors, "/")
	if g.CPUFactor, err = strconv.ParseFloat(cpu, 64); err != nil {
		return g, fmt.Errorf("factor: %w", err)
	}
	g.DiskFactor = g.CPUFactor
	if split {
		if g.DiskFactor, err = strconv.ParseFloat(disk, 64); err != nil {
			return g, fmt.Errorf("disk factor: %w", err)
		}
	}
	return g, nil
}

// parseResilience parses the -resilience settings.
func parseResilience(s string) (carat.Resilience, error) {
	var r carat.Resilience
	fields := map[string]any{
		"retries":     &r.Retry.MaxAttempts,
		"backoff":     &r.Retry.BaseBackoffMS,
		"maxbackoff":  &r.Retry.MaxBackoffMS,
		"mult":        &r.Retry.Multiplier,
		"jitter":      &r.Retry.JitterFrac,
		"mpl":         &r.Admission.MaxMPL,
		"abortrate":   &r.Admission.AbortRateThreshold,
		"window":      &r.Admission.WindowMS,
		"shed":        &r.Admission.Shed,
		"shedbackoff": &r.Admission.ShedBackoffMS,
		"probe":       &r.ProbeRetryMS,
	}
	if err := setAll(fields, s, ","); err != nil {
		return r, fmt.Errorf("resilience: %w", err)
	}
	return r, nil
}

// parseReplication parses the -repl settings.
func parseReplication(s string) (carat.ReplicationPolicy, error) {
	var r carat.ReplicationPolicy
	var read string
	fields := map[string]any{"R": &r.Factor, "r": &r.Factor, "factor": &r.Factor, "read": &read}
	if err := setAll(fields, s, ","); err != nil {
		return r, fmt.Errorf("repl: %w", err)
	}
	mode, err := repl.ParseReadMode(read)
	r.ReadQuorum = mode == repl.ReadQuorum
	return r, err
}

// parseOpenClasses parses the -classes mix: ';'-separated classes, each a
// ','-separated list of key=value settings.
func parseOpenClasses(s string) ([]carat.OpenClass, error) {
	var out []carat.OpenClass
	for _, spec := range items(s, ";") {
		var c carat.OpenClass
		var kind, pattern string
		hot, frac, theta := 0.2, 0.8, 0.99
		fields := map[string]any{
			"kind":    &kind,
			"weight":  &c.Weight,
			"n":       &c.Requests,
			"rf":      &c.RemoteFrac,
			"pattern": &pattern,
			"hot":     &hot,
			"frac":    &frac,
			"theta":   &theta,
		}
		if err := setAll(fields, spec, ","); err != nil {
			return nil, fmt.Errorf("classes: %w", err)
		}
		switch c.Type = carat.TxnType(kind); c.Type {
		case carat.LocalReadOnly, carat.LocalUpdate, carat.DistributedRead, carat.DistributedUpdate:
		case "":
			return nil, fmt.Errorf("classes: %q needs kind=TYPE", spec)
		default:
			return nil, fmt.Errorf("classes: unknown transaction type %q (want LRO, LU, DRO or DU)", kind)
		}
		if pattern != "" {
			p, err := carat.PatternByName(pattern, hot, frac, theta)
			if err != nil {
				return nil, fmt.Errorf("classes: %w", err)
			}
			c.Pattern = &p
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("classes: empty class list")
	}
	return out, nil
}

// parseRamp parses the -ramp schedule 'AT:RATE,AT:RATE,...'
// (ms:arrivals/s).
func parseRamp(s string) ([]carat.RampPoint, error) {
	return list("ramp", s, func(item string) (carat.RampPoint, error) {
		var p carat.RampPoint
		at, rate, ok := strings.Cut(item, ":")
		if !ok {
			return p, fmt.Errorf("%q wants AT:RATE", item)
		}
		var err error
		if p.AtMS, err = strconv.ParseFloat(at, 64); err != nil {
			return p, fmt.Errorf("time: %w", err)
		}
		if p.LambdaPerSec, err = strconv.ParseFloat(rate, 64); err != nil {
			return p, fmt.Errorf("rate: %w", err)
		}
		return p, nil
	})
}

// Ints parses the comma-separated integer list s of the flag name, each
// value in [lo, hi].
func Ints(name, s string, lo, hi int) ([]int, error) {
	return list(name, s, func(item string) (int, error) {
		v, err := strconv.Atoi(item)
		if err != nil {
			return 0, err
		}
		return v, inRange(v, lo, hi)
	})
}

// Floats parses the comma-separated number list s of the flag name, each
// value in [lo, hi].
func Floats(name, s string, lo, hi float64) ([]float64, error) {
	return list(name, s, func(item string) (float64, error) {
		v, err := strconv.ParseFloat(item, 64)
		if err != nil {
			return 0, err
		}
		return v, inRange(v, lo, hi)
	})
}

// list parses the comma-separated list s of the flag name, converting each
// trimmed item with parse. An empty list is an error.
func list[T any](name, s string, parse func(string) (T, error)) ([]T, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("%s: empty list", name)
	}
	var out []T
	for _, item := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(item))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func inRange[T int | float64](v, lo, hi T) error {
	switch {
	case v < lo:
		return fmt.Errorf("%v is below %v", v, lo)
	case v > hi:
		return fmt.Errorf("%v is above %v", v, hi)
	}
	return nil
}

// window parses HEAD@AT+FOR, the shape every scheduled fault shares,
// returning HEAD and the two times in ms; shape names the full syntax for
// the error.
func window(s, shape string) (head string, at, dur float64, err error) {
	head, timing, ok := strings.Cut(s, "@")
	atStr, durStr, ok2 := strings.Cut(timing, "+")
	if !ok || !ok2 {
		return "", 0, 0, fmt.Errorf("%q wants %s", s, shape)
	}
	if at, err = strconv.ParseFloat(atStr, 64); err != nil {
		return "", 0, 0, fmt.Errorf("time: %w", err)
	}
	if dur, err = strconv.ParseFloat(durStr, 64); err != nil {
		return "", 0, 0, fmt.Errorf("duration: %w", err)
	}
	return head, at, dur, nil
}

// setAll sets fields from the sep-separated key=value list s.
func setAll(fields map[string]any, s, sep string) error {
	for _, item := range items(s, sep) {
		key, val, err := keyValue(item)
		if err == nil {
			err = set(fields, key, val)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// set parses val into the field fields names for key: a *string, *int,
// *uint64, *float64 or *bool.
func set(fields map[string]any, key, val string) error {
	var err error
	switch p := fields[key].(type) {
	case *string:
		*p = val
	case *int:
		*p, err = strconv.Atoi(val)
	case *uint64:
		*p, err = strconv.ParseUint(val, 10, 64)
	case *float64:
		*p, err = strconv.ParseFloat(val, 64)
	case *bool:
		*p, err = strconv.ParseBool(val)
	default:
		return fmt.Errorf("unknown key %q", key)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	return nil
}

// keyValue splits a key=value item.
func keyValue(item string) (key, val string, err error) {
	key, val, ok := strings.Cut(item, "=")
	if !ok {
		return "", "", fmt.Errorf("%q is not key=value", item)
	}
	return key, val, nil
}

// items splits s at sep into its trimmed, non-empty items.
func items(s, sep string) []string {
	var out []string
	for _, item := range strings.Split(s, sep) {
		if item = strings.TrimSpace(item); item != "" {
			out = append(out, item)
		}
	}
	return out
}
