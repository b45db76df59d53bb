package pregel

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"
)

// fmtVertexLine and fmtValueString are the fmt renderings the dump used
// before FormatVertexLine was built on strconv: the reference every dump
// line must stay byte-identical to.
func fmtVertexLine(v *Vertex) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d\t%s\t", uint64(v.ID), fmtValueString(v.Value))
	for i, e := range v.Edges {
		if i > 0 {
			b.WriteByte(' ')
		}
		if f, ok := e.Value.(*Float); ok && f != nil {
			fmt.Fprintf(&b, "%d:%g", uint64(e.Dest), float64(*f))
		} else {
			fmt.Fprintf(&b, "%d", uint64(e.Dest))
		}
	}
	return b.String()
}

func fmtValueString(v Value) string {
	switch x := v.(type) {
	case nil:
		return ""
	case *Double:
		return strconv.FormatFloat(float64(*x), 'g', -1, 64)
	case *Float:
		return strconv.FormatFloat(float64(*x), 'g', -1, 32)
	case *Int64:
		return strconv.FormatInt(int64(*x), 10)
	case *Bool:
		return strconv.FormatBool(bool(*x))
	case *Bytes:
		return fmt.Sprintf("%x", []byte(*x))
	case *VIDList:
		parts := make([]string, len(*x))
		for i, id := range *x {
			parts[i] = strconv.FormatUint(id, 10)
		}
		return strings.Join(parts, ",")
	default:
		return fmt.Sprintf("%v", v)
	}
}

// pointValue is a user-defined Value: it renders through fmt's %v.
type pointValue struct{ X, Y int32 }

func (p *pointValue) Marshal(dst []byte) []byte { return dst }
func (p *pointValue) Unmarshal([]byte) error    { return nil }

// awkwardFloat32s are the weights whose text is easiest to get wrong.
var awkwardFloat32s = []float32{
	0, float32(math.Copysign(0, -1)), 1, -1, 0.1, 1e-45, 1.1754942e-38, 1.1754944e-38,
	math.MaxFloat32, -math.MaxFloat32, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	123456790, 1e21, 1e-7, 2.5e-5,
}

func randValue(rng *rand.Rand) Value {
	switch rng.IntN(8) {
	case 0:
		d := Double(math.Float64frombits(rng.Uint64()))
		if rng.IntN(2) == 0 {
			d = Double(rng.NormFloat64() * math.Pow(10, float64(rng.IntN(40)-20)))
		}
		return &d
	case 1:
		f := Float(math.Float32frombits(rng.Uint32()))
		return &f
	case 2:
		i := Int64(rng.Uint64())
		return &i
	case 3:
		b := Bool(rng.IntN(2) == 0)
		return &b
	case 4:
		b := make(Bytes, rng.IntN(6))
		for i := range b {
			b[i] = byte(rng.Uint32())
		}
		return &b
	case 5:
		l := make(VIDList, rng.IntN(4))
		for i := range l {
			l[i] = rng.Uint64() >> rng.UintN(64)
		}
		return &l
	case 6:
		return &pointValue{X: rng.Int32(), Y: -rng.Int32()}
	default:
		return nil
	}
}

func randEdgeValue(rng *rand.Rand) Value {
	switch rng.IntN(5) {
	case 0:
		f := Float(awkwardFloat32s[rng.IntN(len(awkwardFloat32s))])
		return &f
	case 1:
		f := Float(math.Float32frombits(rng.Uint32())) // subnormals, NaNs, Infs among them
		return &f
	case 2:
		d := Double(rng.Float64())
		return &d // not a weight: prints no ":w"
	case 3:
		return (*Float)(nil)
	default:
		return nil
	}
}

// TestFormatVertexLineMatchesFmt: on random vertices of every built-in
// value type and random edge weights, FormatVertexLine and ValueString
// are byte-identical to the fmt renderings they replaced.
func TestFormatVertexLineMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 1))
	for n := 0; n < 20000; n++ {
		v := &Vertex{ID: VertexID(rng.Uint64() >> rng.UintN(64)), Value: randValue(rng)}
		for e := rng.IntN(12); e > 0; e-- {
			v.Edges = append(v.Edges, Edge{Dest: VertexID(rng.Uint64() >> rng.UintN(64)), Value: randEdgeValue(rng)})
		}
		if got, want := ValueString(v.Value), fmtValueString(v.Value); got != want {
			t.Fatalf("ValueString(%#v) = %q, fmt gives %q", v.Value, got, want)
		}
		if got, want := FormatVertexLine(v), fmtVertexLine(v); got != want {
			t.Fatalf("FormatVertexLine = %q, fmt gives %q", got, want)
		}
	}
	for _, w := range awkwardFloat32s {
		f := Float(w)
		v := &Vertex{ID: 1, Value: &f, Edges: []Edge{{Dest: 2, Value: &f}}}
		if got, want := FormatVertexLine(v), fmtVertexLine(v); got != want {
			t.Fatalf("weight %v: FormatVertexLine = %q, fmt gives %q", w, got, want)
		}
	}
}
