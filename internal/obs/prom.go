package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"strconv"
	"strings"
)

// Prometheus text exposition (version 0.0.4) for the registry, plus a
// dependency-free conformance checker. The live server's /metrics endpoint
// serves WritePrometheus output so any Prometheus-compatible scraper can
// collect a run, and -obs writes the same exposition to metrics.prom; the
// tests run ValidatePrometheus over both.

var promNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// promName sanitizes a registry instrument name ("mpi.send.bytes") into a
// legal Prometheus metric name ("mpi_send_bytes").
func promName(name string) string {
	var b strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r == '_' || r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// promFloat renders a float sample value the way Prometheus expects.
func promFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the snapshot in Prometheus text exposition
// format: counters with the _total suffix, gauges as-is, and histograms as
// summaries (quantile series plus _sum and _count), each family preceded by
// HELP and TYPE lines. The original dotted registry name is kept in HELP so
// the mapping stays greppable.
func (s RegistrySnapshot) WritePrometheus(w io.Writer) error {
	for _, c := range s.Counters {
		name := promName(c.Name)
		if !strings.HasSuffix(name, "_total") {
			name += "_total"
		}
		fmt.Fprintf(w, "# HELP %s counter %s\n", name, c.Name)
		fmt.Fprintf(w, "# TYPE %s counter\n", name)
		fmt.Fprintf(w, "%s %d\n", name, c.Value)
	}
	for _, g := range s.Gauges {
		name := promName(g.Name)
		fmt.Fprintf(w, "# HELP %s gauge %s\n", name, g.Name)
		fmt.Fprintf(w, "# TYPE %s gauge\n", name)
		fmt.Fprintf(w, "%s %d\n", name, g.Value)
	}
	for _, h := range s.Histograms {
		name := promName(h.Name)
		fmt.Fprintf(w, "# HELP %s summary %s\n", name, h.Name)
		fmt.Fprintf(w, "# TYPE %s summary\n", name)
		fmt.Fprintf(w, "%s{quantile=\"0.5\"} %s\n", name, promFloat(h.P50))
		fmt.Fprintf(w, "%s{quantile=\"0.95\"} %s\n", name, promFloat(h.P95))
		fmt.Fprintf(w, "%s{quantile=\"0.99\"} %s\n", name, promFloat(h.P99))
		fmt.Fprintf(w, "%s_sum %s\n", name, promFloat(h.Sum))
		fmt.Fprintf(w, "%s_count %d\n", name, h.Count)
	}
	return nil
}

var (
	promHelpRe  = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) (.*)$`)
	promTypeRe  = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
	promValueRe = regexp.MustCompile(`^(NaN|[+-]?Inf|[-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?)$`)
	promLabelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// splitPromSample splits `name{labels} value [ts]` into its parts. It
// returns an error describing the first malformed piece.
func splitPromSample(line string) (name, labels, rest string, err error) {
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.LastIndexByte(line, '}')
		if j < i {
			return "", "", "", fmt.Errorf("unbalanced braces")
		}
		return line[:i], line[i+1 : j], strings.TrimSpace(line[j+1:]), nil
	}
	fields := strings.SplitN(line, " ", 2)
	if len(fields) != 2 {
		return "", "", "", fmt.Errorf("no value")
	}
	return fields[0], "", strings.TrimSpace(fields[1]), nil
}

// validatePromLabels checks `k="v",k2="v2"` label syntax.
func validatePromLabels(s string) error {
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return fmt.Errorf("label without '='")
		}
		key := strings.TrimSpace(s[:eq])
		if !promLabelRe.MatchString(key) {
			return fmt.Errorf("bad label name %q", key)
		}
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return fmt.Errorf("label %q value not quoted", key)
		}
		// Scan the quoted value honoring \\ and \" escapes.
		i := 1
		for {
			if i >= len(s) {
				return fmt.Errorf("label %q value not terminated", key)
			}
			if s[i] == '\\' {
				i += 2
				continue
			}
			if s[i] == '"' {
				break
			}
			i++
		}
		s = s[i+1:]
		if len(s) > 0 {
			if s[0] != ',' {
				return fmt.Errorf("expected ',' between labels, got %q", s)
			}
			s = s[1:]
		}
	}
	return nil
}

// ValidatePrometheus is a parser-based conformance check of a text
// exposition body: every line must be a well-formed comment, HELP, TYPE, or
// sample; TYPE must precede its family's samples and appear at most once
// per family; sample values must parse; and identical (name, labels) pairs
// must not repeat. It is deliberately dependency-free — the point is that
// CI can verify scrape output without a Prometheus client library.
func ValidatePrometheus(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	typed := map[string]string{} // family → declared type
	seen := map[string]bool{}    // name{labels} → dup check
	sampled := map[string]bool{} // family → has samples (TYPE must come first)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if m := promTypeRe.FindStringSubmatch(line); m != nil {
				if _, dup := typed[m[1]]; dup {
					return fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, m[1])
				}
				if sampled[m[1]] {
					return fmt.Errorf("line %d: TYPE for %s after its samples", lineNo, m[1])
				}
				typed[m[1]] = m[2]
				continue
			}
			if promHelpRe.MatchString(line) {
				continue
			}
			if strings.HasPrefix(line, "# HELP") || strings.HasPrefix(line, "# TYPE") {
				return fmt.Errorf("line %d: malformed %s line: %q", lineNo, strings.Fields(line)[1], line)
			}
			continue // free-form comment
		}
		name, labels, rest, err := splitPromSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %v: %q", lineNo, err, line)
		}
		if !promNameRe.MatchString(name) {
			return fmt.Errorf("line %d: bad metric name %q", lineNo, name)
		}
		if labels != "" {
			if err := validatePromLabels(labels); err != nil {
				return fmt.Errorf("line %d: %v: %q", lineNo, err, line)
			}
		}
		parts := strings.Fields(rest)
		if len(parts) == 0 || len(parts) > 2 {
			return fmt.Errorf("line %d: expected value [timestamp], got %q", lineNo, rest)
		}
		if !promValueRe.MatchString(parts[0]) {
			return fmt.Errorf("line %d: bad sample value %q", lineNo, parts[0])
		}
		if len(parts) == 2 {
			if _, err := strconv.ParseInt(parts[1], 10, 64); err != nil {
				return fmt.Errorf("line %d: bad timestamp %q", lineNo, parts[1])
			}
		}
		// The family of name{...} is name minus a summary/histogram suffix.
		family := name
		for _, suf := range []string{"_sum", "_count", "_bucket"} {
			base := strings.TrimSuffix(name, suf)
			if base != name {
				if ty := typed[base]; ty == "summary" || ty == "histogram" {
					family = base
				}
				break
			}
		}
		sampled[family] = true
		key := name + "{" + labels + "}"
		if seen[key] {
			return fmt.Errorf("line %d: duplicate sample %s", lineNo, key)
		}
		seen[key] = true
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(seen) == 0 {
		return fmt.Errorf("no samples in exposition")
	}
	return nil
}
