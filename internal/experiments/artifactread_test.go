package experiments

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"sparseorder/internal/reorder"
)

// artifactRow is one parsed line of an artifact-format data file: the
// matrix metadata and one Measurement per ordering.
type artifactRow struct {
	Group   string
	Name    string
	Rows    int
	Cols    int
	NNZ     int
	Threads int
	Perf    map[reorder.Algorithm]Measurement
}

// readArtifactFile parses a file written by WriteArtifactFile — or, by
// construction, any file following the paper artifact's plain-text layout:
// five metadata columns, the thread count, then seven numeric columns per
// ordering. Comment lines starting with '%' are skipped.
func readArtifactFile(r io.Reader) ([]artifactRow, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var rows []artifactRow
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		want := 6 + 7*len(artifactOrderings)
		if len(fields) != want {
			return nil, fmt.Errorf("experiments: line %d has %d fields, want %d", lineNo, len(fields), want)
		}
		row := artifactRow{
			Group: fields[0],
			Name:  fields[1],
			Perf:  map[reorder.Algorithm]Measurement{},
		}
		ints := []*int{&row.Rows, &row.Cols, &row.NNZ, &row.Threads}
		for i, dst := range ints {
			v, err := strconv.Atoi(fields[2+i])
			if err != nil {
				return nil, fmt.Errorf("experiments: line %d field %d: %w", lineNo, 2+i, err)
			}
			*dst = v
		}
		pos := 6
		for _, alg := range artifactOrderings {
			var m Measurement
			var err error
			if m.MinNNZ, err = strconv.Atoi(fields[pos]); err != nil {
				return nil, fmt.Errorf("experiments: line %d (%s): %w", lineNo, alg, err)
			}
			if m.MaxNNZ, err = strconv.Atoi(fields[pos+1]); err != nil {
				return nil, fmt.Errorf("experiments: line %d (%s): %w", lineNo, alg, err)
			}
			floats := []*float64{&m.MeanNNZ, &m.Imbalance, &m.Seconds, &m.Gflops}
			for i, dst := range floats {
				v, err := strconv.ParseFloat(fields[pos+2+i], 64)
				if err != nil {
					return nil, fmt.Errorf("experiments: line %d (%s): %w", lineNo, alg, err)
				}
				*dst = v
			}
			// Column 7 is the mean Gflop/s; the deterministic model makes
			// it equal to the max, so it only needs to parse.
			if _, err := strconv.ParseFloat(fields[pos+6], 64); err != nil {
				return nil, fmt.Errorf("experiments: line %d (%s): %w", lineNo, alg, err)
			}
			row.Perf[alg] = m
			pos += 7
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rows, nil
}

// geoMeanFromArtifact recomputes the Table 3/4 style geometric-mean
// speedups from parsed artifact rows — the same post-processing path the
// paper's published data files support.
func geoMeanFromArtifact(rows []artifactRow, alg reorder.Algorithm) float64 {
	prod, n := 0.0, 0
	for _, r := range rows {
		base := r.Perf[reorder.Original].Gflops
		v := r.Perf[alg].Gflops
		if base > 0 && v > 0 {
			prod += math.Log(v / base)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(prod / float64(n))
}
