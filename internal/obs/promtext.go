package obs

import (
	"fmt"
	"strconv"
	"strings"
)

// Sample is one sample line of a Prometheus text exposition:
// name{labels} value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ParseText parses a Prometheus text exposition in the form WritePrometheus
// emits: one `name{key="value",…} value` sample per line, name and value
// separated by a single space, no timestamp. Blank lines and `#` comment
// lines are skipped. Metric and label names must match the Prometheus
// grammar, label values may use only the \\, \" and \n escapes, and a
// label name may not repeat. Any other line is an error, so a consumer
// never reads a malformed exposition as data.
func ParseText(text string) ([]Sample, error) {
	var out []Sample
	for ln, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("obs: metrics line %d: %w", ln+1, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// parseSample parses one sample line.
func parseSample(line string) (Sample, error) {
	n := nameLen(line, true)
	if n == 0 {
		return Sample{}, fmt.Errorf("no metric name in %q", line)
	}
	s := Sample{Name: line[:n], Labels: map[string]string{}}
	rest := line[n:]
	if strings.HasPrefix(rest, "{") {
		var err error
		if rest, err = parseLabels(rest[1:], s.Labels); err != nil {
			return Sample{}, fmt.Errorf("%s: %w", s.Name, err)
		}
	}
	if !strings.HasPrefix(rest, " ") {
		return Sample{}, fmt.Errorf("%s: want a space and a value, got %q", s.Name, rest)
	}
	// ParseFloat rejects any whitespace, so a second field (a timestamp)
	// fails here too. It accepts the +Inf, -Inf and NaN spellings.
	v, err := strconv.ParseFloat(rest[1:], 64)
	if err != nil {
		return Sample{}, fmt.Errorf("%s: bad value %q", s.Name, rest[1:])
	}
	s.Value = v
	return s, nil
}

// parseLabels parses the label pairs after a sample's opening brace into
// labels and returns the text after the closing brace.
func parseLabels(body string, labels map[string]string) (string, error) {
	for {
		if strings.HasPrefix(body, "}") {
			return body[1:], nil
		}
		k := nameLen(body, false)
		if k == 0 {
			return "", fmt.Errorf("bad label name in %q", body)
		}
		key := body[:k]
		if !strings.HasPrefix(body[k:], `="`) {
			return "", fmt.Errorf("label %q value not quoted", key)
		}
		body = body[k+2:]
		var val strings.Builder
		i := 0
		for ; ; i++ {
			if i >= len(body) {
				return "", fmt.Errorf("label %q value unterminated", key)
			}
			c := body[i]
			if c == '"' {
				break
			}
			switch c {
			case '\n':
				return "", fmt.Errorf("label %q contains a raw newline", key)
			case '\\':
				if i+1 >= len(body) {
					return "", fmt.Errorf("label %q ends mid-escape", key)
				}
				i++
				switch body[i] {
				case '\\', '"':
					c = body[i]
				case 'n':
					c = '\n'
				default:
					return "", fmt.Errorf("label %q has invalid escape \\%c", key, body[i])
				}
			}
			val.WriteByte(c)
		}
		if _, dup := labels[key]; dup {
			return "", fmt.Errorf("label %q repeated", key)
		}
		labels[key] = val.String()
		body = body[i+1:]
		switch {
		case strings.HasPrefix(body, ","):
			body = body[1:]
		case !strings.HasPrefix(body, "}"):
			return "", fmt.Errorf("expected ',' or '}' after label %q", key)
		}
	}
}

// nameLen returns the length of the longest prefix of s that is a metric
// name (colon true) or a label name (colon false) in the Prometheus
// grammar: [a-zA-Z_:][a-zA-Z0-9_:]* and [a-zA-Z_][a-zA-Z0-9_]*.
func nameLen(s string, colon bool) int {
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' ||
			colon && c == ':' || i > 0 && c >= '0' && c <= '9'
		if !ok {
			return i
		}
	}
	return len(s)
}
