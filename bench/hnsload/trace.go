package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strconv"
	"sync"
	"time"
)

// tracer records, in memory, one span per call the harness makes. A nil
// tracer records nothing, so the untraced run pays one nil check per
// call site. Spans inside the daemons are a later issue; these are the
// spans around the calls into each layer.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	names []string
	index map[string]uint16
	on    bool // spans are recorded only while on (the traced windows)
}

// span ids are 1-based indices into tracer.spans; 0 means "none".
type span struct {
	parent uint32
	op     uint32 // id of the root span of the request this span belongs to
	name   uint16
	start  int64 // ns since t0
	end    int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), index: make(map[string]uint16)}
}

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(name string, parent uint32) uint32 {
	if t == nil || !t.on {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	n, ok := t.index[name]
	if !ok {
		n = uint16(len(t.names))
		t.names = append(t.names, name)
		t.index[name] = n
	}
	id := uint32(len(t.spans) + 1)
	op := id
	if parent != 0 {
		op = t.spans[parent-1].op
	}
	t.spans = append(t.spans, span{parent: parent, op: op, name: n, start: now})
	t.mu.Unlock()
	return id
}

// end closes the span.
func (t *tracer) end(id uint32) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// layerRow is one line of the layer table: a span name with its count,
// total time, and self time (its duration minus what its children cover).
type layerRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalUS float64 `json:"total_us"`
	SelfUS  float64 `json:"self_us"`
	MeanUS  float64 `json:"mean_us"`
}

// layerTable folds the spans by name.
func (t *tracer) layerTable() []layerRow {
	if t == nil {
		return nil
	}
	child := make([]int64, len(t.spans)) // time covered by children, per span
	for _, s := range t.spans {
		if s.parent != 0 {
			child[s.parent-1] += s.end - s.start
		}
	}
	rows := make([]layerRow, len(t.names))
	for i, n := range t.names {
		rows[i].Name = n
	}
	for i, s := range t.spans {
		r := &rows[s.name]
		r.Count++
		d := s.end - s.start
		r.TotalUS += float64(d) / 1e3
		r.SelfUS += float64(d-child[i]) / 1e3
	}
	for i := range rows {
		if rows[i].Count > 0 {
			rows[i].MeanUS = rows[i].TotalUS / float64(rows[i].Count)
		}
	}
	return rows
}

// write stores the layer table, any extra tables, and every span at
// path. Spans are rows of [id, parent, op, name index, start µs,
// duration µs] to keep a quarter of a million of them readable by a
// script without being tens of megabytes.
func (t *tracer) write(path string, extra map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	head := map[string]any{
		"layer_table":  t.layerTable(),
		"span_names":   t.names,
		"span_columns": []string{"id", "parent", "op", "name", "start_us", "dur_us"},
	}
	for k, v := range extra {
		head[k] = v
	}
	hb, err := json.MarshalIndent(head, "", " ")
	if err != nil {
		f.Close()
		return err
	}
	// Splice "spans" in as the last key of the head object.
	w.Write(hb[:len(hb)-2])
	w.WriteString(",\n \"spans\": [\n")
	var buf []byte
	for i, s := range t.spans {
		buf = buf[:0]
		buf = append(buf, '[')
		buf = strconv.AppendInt(buf, int64(i+1), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(s.parent), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(s.op), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(s.name), 10)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, float64(s.start)/1e3, 'f', 1, 64)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, float64(s.end-s.start)/1e3, 'f', 1, 64)
		buf = append(buf, ']')
		if i < len(t.spans)-1 {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
		w.Write(buf)
	}
	w.WriteString(" ]\n}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
