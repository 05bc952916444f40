package main

import (
	"fmt"
	"strconv"
	"strings"
)

// promSample is one series line of the Prometheus text format.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm parses the series lines of a Prometheus text exposition,
// skipping comments and blank lines.
func parseProm(text string) ([]promSample, error) {
	var out []promSample
	for n, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		s, err := parsePromLine(line)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n+1, err)
		}
		out = append(out, s)
	}
	return out, nil
}

func parsePromLine(line string) (promSample, error) {
	s := promSample{labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(line, "{ "); i >= 0 && line[i] == '{' {
		s.name = line[:i]
		j := i + 1
		for j < len(line) && line[j] != '}' {
			eq := strings.IndexByte(line[j:], '=')
			if eq < 0 || j+eq+1 >= len(line) || line[j+eq+1] != '"' {
				return s, fmt.Errorf("malformed labels in %q", line)
			}
			key := strings.TrimSpace(line[j : j+eq])
			var val strings.Builder
			k := j + eq + 2
			for ; k < len(line) && line[k] != '"'; k++ {
				if line[k] == '\\' && k+1 < len(line) {
					k++
					if line[k] == 'n' {
						val.WriteByte('\n')
						continue
					}
				}
				val.WriteByte(line[k])
			}
			if k >= len(line) {
				return s, fmt.Errorf("unterminated label value in %q", line)
			}
			s.labels[key] = val.String()
			j = k + 1
			if j < len(line) && line[j] == ',' {
				j++
			}
		}
		if j >= len(line) {
			return s, fmt.Errorf("unterminated labels in %q", line)
		}
		rest = line[j+1:]
	} else {
		sp := strings.IndexByte(line, ' ')
		if sp < 0 {
			return s, fmt.Errorf("no value in %q", line)
		}
		s.name, rest = line[:sp], line[sp:]
	}
	f := strings.Fields(rest)
	if len(f) == 0 {
		return s, fmt.Errorf("no value in %q", line)
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return s, fmt.Errorf("value in %q: %w", line, err)
	}
	s.value = v
	return s, nil
}

// promSum adds the values of every series of name whose labels include want.
func promSum(samples []promSample, name string, want map[string]string) float64 {
	var total float64
	for _, s := range samples {
		if s.name != name {
			continue
		}
		ok := true
		for k, v := range want {
			if s.labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			total += s.value
		}
	}
	return total
}
