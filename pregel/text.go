package pregel

import (
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
)

// Text graph format (the SimpleTextInputFormat/SimpleTextOutputFormat of
// Figure 9): one vertex per line,
//
//	vid <tab> dest[:weight] dest[:weight] ...
//
// Vertex values are not part of the input; programs initialize them in
// superstep 1 (as the paper's SSSP does). On output, the vertex value is
// appended as a second tab-separated column when a formatter is set.

// ParseVertexLine parses one adjacency line. newEdgeValue may be nil for
// unweighted graphs; weights present in the input are decoded as Float.
func ParseVertexLine(line string, withWeights bool) (*Vertex, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return nil, fmt.Errorf("pregel: empty vertex line")
	}
	id, err := strconv.ParseUint(fields[0], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("pregel: bad vid %q: %w", fields[0], err)
	}
	v := &Vertex{ID: VertexID(id)}
	for _, f := range fields[1:] {
		var destStr, wStr string
		if i := strings.IndexByte(f, ':'); i >= 0 {
			destStr, wStr = f[:i], f[i+1:]
		} else {
			destStr = f
		}
		dest, err := strconv.ParseUint(destStr, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("pregel: bad edge dest %q: %w", destStr, err)
		}
		var ev Value
		if withWeights && wStr != "" {
			w, err := strconv.ParseFloat(wStr, 32)
			if err != nil {
				return nil, fmt.Errorf("pregel: bad edge weight %q: %w", wStr, err)
			}
			fv := Float(w)
			ev = &fv
		}
		v.Edges = append(v.Edges, Edge{Dest: VertexID(dest), Value: ev})
	}
	return v, nil
}

// FormatVertexLine renders a vertex for result dumping:
// "vid<TAB>value<TAB>dest[:w] ...". The value column prints via
// ValueString; an edge prints a weight only when its value is a *Float,
// as the shortest float64 text of it.
func FormatVertexLine(v *Vertex) string {
	var stack [256]byte // a typical row renders here, then is copied once
	b := strconv.AppendUint(stack[:0], uint64(v.ID), 10)
	b = append(appendValue(append(b, '\t'), v.Value), '\t')
	for i, e := range v.Edges {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendUint(b, uint64(e.Dest), 10)
		if f, ok := e.Value.(*Float); ok && f != nil {
			b = strconv.AppendFloat(append(b, ':'), float64(*f), 'g', -1, 64)
		}
	}
	return string(b)
}

// ValueString renders a Value for human-readable output.
func ValueString(v Value) string {
	var stack [64]byte
	return string(appendValue(stack[:0], v))
}

// appendValue appends ValueString(v) to dst.
func appendValue(dst []byte, v Value) []byte {
	switch x := v.(type) {
	case nil:
		return dst
	case *Double:
		return strconv.AppendFloat(dst, float64(*x), 'g', -1, 64)
	case *Float:
		return strconv.AppendFloat(dst, float64(*x), 'g', -1, 32)
	case *Int64:
		return strconv.AppendInt(dst, int64(*x), 10)
	case *Bool:
		return strconv.AppendBool(dst, bool(*x))
	case *Bytes:
		return hex.AppendEncode(dst, *x)
	case *VIDList:
		for i, id := range *x {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendUint(dst, id, 10)
		}
		return dst
	default:
		return fmt.Appendf(dst, "%v", v)
	}
}
