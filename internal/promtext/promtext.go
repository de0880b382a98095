// Package promtext is trance's metrics layer, by hand — no client library
// dependency. A Registry declares each metric family once (Default holds the
// library's process-wide counters) and gathers it into Family values, which
// Write renders in the Prometheus text exposition format (version 0.0.4) and
// WriteJSON as JSON — the two formats of tranced's `GET /metrics`. The Parser
// side is a strict validator used by tests and the CI smoke to prove the
// exposition parses cleanly: HELP/TYPE declarations must precede samples,
// types must be known, sample names must belong to their family, label
// values must escape correctly, no series may repeat, and histogram buckets
// must be cumulative with a +Inf bucket matching _count.
package promtext

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Label is one name="value" pair on a sample.
type Label struct {
	Name, Value string
}

// Sample is one exposition line of a family. Suffix distinguishes histogram
// series ("_bucket", "_sum", "_count"); plain counters and gauges leave it
// empty.
type Sample struct {
	Suffix string
	Labels []Label
	Value  float64
}

// Family is one metric family: a HELP line, a TYPE line, and its samples.
type Family struct {
	Name    string
	Help    string
	Type    string // "counter", "gauge" or "histogram"
	Samples []Sample
}

// Write renders the families in order. Families render deterministically:
// samples keep their given order.
func Write(w io.Writer, fams []Family) error {
	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.Name, escapeHelp(f.Help), f.Name, f.Type); err != nil {
			return err
		}
		for _, s := range f.Samples {
			if _, err := io.WriteString(w, f.Name+s.Suffix+formatLabels(s.Labels)+" "+formatValue(s.Value)+"\n"); err != nil {
				return err
			}
		}
	}
	return nil
}

func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func formatLabels(ls []Label) string {
	if len(ls) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Name)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// HistogramSamples renders one histogram series: counts[i] observations fell
// in (bounds[i-1], bounds[i]], overflow above the last bound. Buckets are
// emitted cumulatively with a trailing +Inf bucket, followed by _sum and
// _count, all carrying the given base labels.
func HistogramSamples(labels []Label, bounds []float64, counts []int64, overflow int64, sum float64) []Sample {
	out := make([]Sample, 0, len(bounds)+3)
	var cum int64
	for i, b := range bounds {
		cum += counts[i]
		le := append(append([]Label(nil), labels...), Label{Name: "le", Value: formatValue(b)})
		out = append(out, Sample{Suffix: "_bucket", Labels: le, Value: float64(cum)})
	}
	cum += overflow
	inf := append(append([]Label(nil), labels...), Label{Name: "le", Value: "+Inf"})
	out = append(out,
		Sample{Suffix: "_bucket", Labels: inf, Value: float64(cum)},
		Sample{Suffix: "_sum", Labels: labels, Value: sum},
		Sample{Suffix: "_count", Labels: labels, Value: float64(cum)},
	)
	return out
}

// ParsedSample is one parsed exposition line.
type ParsedSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Key renders the sample's identity (name plus sorted labels) — convenient
// for comparing two scrapes.
func (s ParsedSample) Key() string {
	names := make([]string, 0, len(s.Labels))
	for n := range s.Labels {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	sb.WriteString(s.Name)
	for _, n := range names {
		fmt.Fprintf(&sb, "{%s=%q}", n, s.Labels[n])
	}
	return sb.String()
}

// ParsedFamily is one parsed metric family.
type ParsedFamily struct {
	Name    string
	Help    string
	Type    string
	Samples []ParsedSample
}

// Parse strictly parses an exposition document. Violations — samples before
// their HELP/TYPE declarations, unknown types, sample names outside the
// declared family, malformed labels or values, non-cumulative histogram
// buckets, a missing +Inf bucket, _count disagreeing with it, or a series
// (sample name and label set) repeated — are errors.
func Parse(text string) (map[string]*ParsedFamily, error) {
	fams := map[string]*ParsedFamily{}
	helpSeen := map[string]bool{}
	seriesSeen := map[string]bool{}
	var current *ParsedFamily
	for lineNo, line := range strings.Split(text, "\n") {
		n := lineNo + 1
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok || name == "" {
				return nil, fmt.Errorf("line %d: malformed HELP", n)
			}
			if helpSeen[name] {
				return nil, fmt.Errorf("line %d: duplicate HELP for %s", n, name)
			}
			helpSeen[name] = true
			help := rest[len(name)+1:]
			fams[name] = &ParsedFamily{Name: name, Help: help}
			current = fams[name]
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				return nil, fmt.Errorf("line %d: malformed TYPE", n)
			}
			name, typ := fields[0], fields[1]
			f, ok := fams[name]
			if !ok {
				return nil, fmt.Errorf("line %d: TYPE %s before its HELP", n, name)
			}
			if f.Type != "" {
				return nil, fmt.Errorf("line %d: duplicate TYPE for %s", n, name)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return nil, fmt.Errorf("line %d: unknown type %q", n, typ)
			}
			f.Type = typ
			current = f
		case strings.HasPrefix(line, "#"):
			// Free-form comment.
		default:
			s, err := parseSample(line)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", n, err)
			}
			if current == nil || !sampleBelongs(current, s.Name) {
				return nil, fmt.Errorf("line %d: sample %s outside its family declaration", n, s.Name)
			}
			if current.Type == "" {
				return nil, fmt.Errorf("line %d: sample %s before TYPE", n, s.Name)
			}
			key := s.Key()
			if seriesSeen[key] {
				return nil, fmt.Errorf("line %d: series %s repeated", n, key)
			}
			seriesSeen[key] = true
			current.Samples = append(current.Samples, s)
		}
	}
	for _, f := range fams {
		if f.Type == "" {
			return nil, fmt.Errorf("family %s: HELP without TYPE", f.Name)
		}
		if f.Type == "histogram" {
			if err := checkHistogram(f); err != nil {
				return nil, err
			}
		}
	}
	return fams, nil
}

func sampleBelongs(f *ParsedFamily, name string) bool {
	if name == f.Name {
		return f.Type != "histogram"
	}
	if f.Type == "histogram" {
		switch strings.TrimPrefix(name, f.Name) {
		case "_bucket", "_sum", "_count":
			return true
		}
	}
	return false
}

// checkHistogram validates cumulative bucket monotonicity per label set and
// that the +Inf bucket exists and equals _count.
func checkHistogram(f *ParsedFamily) error {
	type series struct {
		lastLE   float64
		lastCum  float64
		infCount float64
		hasInf   bool
		count    float64
		hasCount bool
	}
	byKey := map[string]*series{}
	get := func(labels map[string]string) *series {
		names := make([]string, 0, len(labels))
		for k := range labels {
			if k != "le" {
				names = append(names, k)
			}
		}
		sort.Strings(names)
		var sb strings.Builder
		for _, k := range names {
			fmt.Fprintf(&sb, "%s=%q;", k, labels[k])
		}
		k := sb.String()
		s, ok := byKey[k]
		if !ok {
			s = &series{lastLE: math.Inf(-1)}
			byKey[k] = s
		}
		return s
	}
	for _, s := range f.Samples {
		ser := get(s.Labels)
		switch strings.TrimPrefix(s.Name, f.Name) {
		case "_bucket":
			leStr, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("family %s: _bucket without le label", f.Name)
			}
			le, err := parseFloat(leStr)
			if err != nil {
				return fmt.Errorf("family %s: bad le %q", f.Name, leStr)
			}
			if le <= ser.lastLE {
				return fmt.Errorf("family %s: le buckets out of order (%q)", f.Name, leStr)
			}
			if s.Value < ser.lastCum {
				return fmt.Errorf("family %s: non-cumulative buckets at le=%q", f.Name, leStr)
			}
			ser.lastLE, ser.lastCum = le, s.Value
			if math.IsInf(le, 1) {
				ser.hasInf, ser.infCount = true, s.Value
			}
		case "_count":
			ser.hasCount, ser.count = true, s.Value
		}
	}
	for _, ser := range byKey {
		if !ser.hasInf {
			return fmt.Errorf("family %s: missing +Inf bucket", f.Name)
		}
		if ser.hasCount && ser.count != ser.infCount {
			return fmt.Errorf("family %s: _count %g != +Inf bucket %g", f.Name, ser.count, ser.infCount)
		}
	}
	return nil
}

func parseFloat(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// parseSample parses `name{label="value",…} value`.
func parseSample(line string) (ParsedSample, error) {
	s := ParsedSample{Labels: map[string]string{}}
	i := 0
	for i < len(line) && isNameChar(line[i], i == 0) {
		i++
	}
	if i == 0 {
		return s, fmt.Errorf("malformed sample name in %q", line)
	}
	s.Name = line[:i]
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		end, labels, err := parseLabels(rest)
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = rest[end:]
	}
	rest = strings.TrimLeft(rest, " ")
	// A timestamp after the value is allowed by the format; we emit none and
	// reject any here for strictness.
	if strings.ContainsAny(rest, " ") {
		return s, fmt.Errorf("trailing content after value in %q", line)
	}
	v, err := parseFloat(rest)
	if err != nil {
		return s, fmt.Errorf("bad value %q", rest)
	}
	s.Value = v
	return s, nil
}

func isNameChar(c byte, first bool) bool {
	if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' {
		return true
	}
	return !first && c >= '0' && c <= '9'
}

// parseLabels parses `{k="v",…}` returning the byte offset past the closing
// brace.
func parseLabels(s string) (int, map[string]string, error) {
	labels := map[string]string{}
	i := 1 // past '{'
	for {
		if i >= len(s) {
			return 0, nil, fmt.Errorf("unterminated label set")
		}
		if s[i] == '}' {
			return i + 1, labels, nil
		}
		start := i
		for i < len(s) && isNameChar(s[i], i == start) {
			i++
		}
		name := s[start:i]
		if name == "" || i >= len(s) || s[i] != '=' {
			return 0, nil, fmt.Errorf("malformed label near %q", s[start:])
		}
		i++
		if i >= len(s) || s[i] != '"' {
			return 0, nil, fmt.Errorf("label value must be quoted near %q", s[start:])
		}
		i++
		var val strings.Builder
		for {
			if i >= len(s) {
				return 0, nil, fmt.Errorf("unterminated label value")
			}
			c := s[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(s) {
					return 0, nil, fmt.Errorf("dangling escape in label value")
				}
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return 0, nil, fmt.Errorf("bad escape \\%c in label value", s[i+1])
				}
				i += 2
				continue
			}
			val.WriteByte(c)
			i++
		}
		if _, dup := labels[name]; dup {
			return 0, nil, fmt.Errorf("duplicate label %s", name)
		}
		labels[name] = val.String()
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
}
