package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteCSV writes the dataset in long form —
// app,trial,rank,iteration,thread,compute_seconds — streaming rows from a
// cursor through a buffered writer: memory stays O(1) in the dataset size
// and no intermediate string of the whole table is ever built.
//
// App names containing CSV metacharacters (comma, quote, newline) are
// rejected: the writer emits the name unquoted, so such a name would
// produce a file ReadCSV rejects with a misleading field-count error.
func (d *Dataset) WriteCSV(w io.Writer) error {
	if strings.ContainsAny(d.App, ",\"\n\r") {
		return fmt.Errorf("trace: app name %q contains CSV metacharacters (comma, quote or newline); rename the dataset before exporting", d.App)
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString("app,trial,rank,iteration,thread,compute_seconds\n"); err != nil {
		return err
	}
	row := make([]byte, 0, 64)
	cur := d.Cursor()
	for cur.Next() {
		b := cur.Block()
		for th, v := range b.Times {
			row = row[:0]
			row = append(row, d.App...)
			row = append(row, ',')
			row = strconv.AppendInt(row, int64(b.Trial), 10)
			row = append(row, ',')
			row = strconv.AppendInt(row, int64(b.Rank), 10)
			row = append(row, ',')
			row = strconv.AppendInt(row, int64(b.Iter), 10)
			row = append(row, ',')
			row = strconv.AppendInt(row, int64(th), 10)
			row = append(row, ',')
			row = strconv.AppendFloat(row, v, 'g', -1, 64)
			row = append(row, '\n')
			if _, err := bw.Write(row); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadCSV parses the long-form CSV written by WriteCSV back into a
// Dataset. The geometry is inferred from the maximum indices seen; every
// cell must be present exactly once. Memory stays proportional to the
// input's length whatever indices it names.
func ReadCSV(r io.Reader) (*Dataset, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(nil, 1<<20) // grows from 4 KiB as lines demand
	if !scanner.Scan() {
		return nil, fmt.Errorf("trace: empty CSV")
	}
	header := strings.TrimSpace(scanner.Text())
	if header != "app,trial,rank,iteration,thread,compute_seconds" {
		return nil, fmt.Errorf("trace: unexpected CSV header %q", header)
	}

	type row struct {
		trial, rank, iter, thread int
		sec                       float64
	}
	var (
		rows    []row
		app     string
		appSeen bool // first data row consumed; "" is a valid app, not a sentinel
		maxT    = -1
		maxR    = -1
		maxI    = -1
		maxTh   = -1
		lineNum = 1
	)
	for scanner.Scan() {
		lineNum++
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) != 6 {
			return nil, fmt.Errorf("trace: line %d: %d fields", lineNum, len(fields))
		}
		if !appSeen {
			app, appSeen = fields[0], true
		} else if fields[0] != app {
			return nil, fmt.Errorf("trace: line %d: mixed apps %q and %q", lineNum, app, fields[0])
		}
		var rw row
		var err error
		if rw.trial, err = strconv.Atoi(fields[1]); err != nil {
			return nil, fmt.Errorf("trace: line %d: trial: %w", lineNum, err)
		}
		if rw.rank, err = strconv.Atoi(fields[2]); err != nil {
			return nil, fmt.Errorf("trace: line %d: rank: %w", lineNum, err)
		}
		if rw.iter, err = strconv.Atoi(fields[3]); err != nil {
			return nil, fmt.Errorf("trace: line %d: iteration: %w", lineNum, err)
		}
		if rw.thread, err = strconv.Atoi(fields[4]); err != nil {
			return nil, fmt.Errorf("trace: line %d: thread: %w", lineNum, err)
		}
		if rw.sec, err = strconv.ParseFloat(fields[5], 64); err != nil {
			return nil, fmt.Errorf("trace: line %d: compute_seconds: %w", lineNum, err)
		}
		if rw.trial < 0 || rw.rank < 0 || rw.iter < 0 || rw.thread < 0 {
			return nil, fmt.Errorf("trace: line %d: negative index", lineNum)
		}
		rows = append(rows, rw)
		if rw.trial > maxT {
			maxT = rw.trial
		}
		if rw.rank > maxR {
			maxR = rw.rank
		}
		if rw.iter > maxI {
			maxI = rw.iter
		}
		if rw.thread > maxTh {
			maxTh = rw.thread
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("trace: CSV has no data rows")
	}
	// The indices come from the input, so check the geometry they imply
	// against the row count before allocating: a sparse (or overflowing)
	// geometry must not let a short input allocate a huge column.
	n, err := sampleCount(maxT+1, maxR+1, maxI+1, maxTh+1)
	if err != nil {
		return nil, err
	}
	if n > len(rows) {
		return nil, fmt.Errorf("trace: missing cells: indices imply %dx%dx%dx%d = %d cells, CSV has %d rows",
			maxT+1, maxR+1, maxI+1, maxTh+1, n, len(rows))
	}
	// Now n <= len(rows), so every cell is present unless some cell is
	// duplicated.
	d := NewDataset(app, maxT+1, maxR+1, maxI+1, maxTh+1)
	seen := make([]bool, n)
	for _, rw := range rows {
		idx := ((rw.trial*d.Ranks+rw.rank)*d.Iterations+rw.iter)*d.Threads + rw.thread
		if seen[idx] {
			return nil, fmt.Errorf("trace: duplicate cell (%d,%d,%d,%d)", rw.trial, rw.rank, rw.iter, rw.thread)
		}
		seen[idx] = true
		d.times[idx] = rw.sec
	}
	return d, nil
}
