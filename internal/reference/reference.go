// Package reference is a minimal single-threaded Pregel interpreter used
// as a semantic oracle in tests: Pregelix's dataflow execution and the
// baseline engines must produce exactly the results this interpreter
// produces for any program and graph.
package reference

import (
	"fmt"
	"slices"

	"pregelix/internal/graphgen"
	"pregelix/pregel"
)

// Engine executes a pregel.Job in memory with textbook BSP semantics.
type Engine struct {
	job      *pregel.Job
	vertices map[uint64]*pregel.Vertex
	inbox    map[uint64][][]byte // serialized messages per destination
	agg      []byte
	step     int64
	nv, ne   int64
}

// NewFromGraph builds an engine over a generated graph, initializing
// vertex values to the codec's zero value.
func NewFromGraph(job *pregel.Job, g *graphgen.Graph) *Engine {
	e := &Engine{
		job:      job,
		vertices: make(map[uint64]*pregel.Vertex, g.NumVertices()),
		inbox:    map[uint64][][]byte{},
	}
	for id, edges := range g.Adj {
		v := &pregel.Vertex{ID: pregel.VertexID(id), Value: job.Codec.NewVertexValue()}
		for i, d := range edges {
			var ev pregel.Value
			if g.Weights != nil && job.Codec.NewEdgeValue != nil {
				w := pregel.Float(g.Weights[id][i])
				ev = &w
			}
			v.Edges = append(v.Edges, pregel.Edge{Dest: pregel.VertexID(d), Value: ev})
		}
		e.vertices[id] = v
		e.nv++
		e.ne += int64(len(edges))
	}
	return e
}

type refCtx struct {
	e       *Engine
	outbox  map[uint64][][]byte
	agg     pregel.Value
	adds    []*pregel.Vertex
	removes []pregel.VertexID
	sent    int
	err     error
}

func (c *refCtx) Superstep() int64   { return c.e.step }
func (c *refCtx) NumVertices() int64 { return c.e.nv }
func (c *refCtx) NumEdges() int64    { return c.e.ne }

func (c *refCtx) GlobalAggregate() pregel.Value {
	if c.e.agg == nil || c.e.job.Aggregator == nil {
		return nil
	}
	v := c.e.job.Aggregator.Zero()
	if err := v.Unmarshal(c.e.agg); err != nil {
		c.err = err
		return nil
	}
	return v
}

func (c *refCtx) Config(key string) string { return c.e.job.Config[key] }

func (c *refCtx) SendMessage(to pregel.VertexID, m pregel.Value) {
	c.outbox[uint64(to)] = append(c.outbox[uint64(to)], pregel.MarshalValue(m))
	c.sent++
}

func (c *refCtx) Aggregate(v pregel.Value) {
	if c.e.job.Aggregator == nil {
		c.err = fmt.Errorf("reference: Aggregate without Aggregator")
		return
	}
	if c.agg == nil {
		c.agg = c.e.job.Aggregator.Merge(c.e.job.Aggregator.Zero(), v)
		return
	}
	c.agg = c.e.job.Aggregator.Merge(c.agg, v)
}

func (c *refCtx) AddVertex(v *pregel.Vertex) { c.adds = append(c.adds, v) }

func (c *refCtx) RemoveVertex(id pregel.VertexID) { c.removes = append(c.removes, id) }

// Run executes supersteps until Pregel termination (all halted, no
// messages) or maxSupersteps (0 = the job's own cap or unlimited).
func (e *Engine) Run(maxSupersteps int) (int64, error) {
	if maxSupersteps == 0 {
		maxSupersteps = e.job.MaxSupersteps
	}
	// ids is every vertex id in order, sorted again only after a
	// superstep that added or removed a vertex.
	var ids []uint64
	resort := true
	for {
		e.step++
		if maxSupersteps > 0 && e.step > int64(maxSupersteps) {
			e.step--
			return e.step, nil
		}
		ctx := &refCtx{e: e, outbox: map[uint64][][]byte{}}
		haltAll := true

		if resort {
			ids = ids[:0]
			for id := range e.vertices {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			resort = false
		}

		for _, id := range ids {
			v := e.vertices[id]
			raw, hasMsg := e.inbox[id]
			if v.Halted && !hasMsg && e.step > 1 {
				continue
			}
			if hasMsg || e.step == 1 {
				v.Halted = false
			}
			msgs, err := e.decodeMsgs(raw)
			if err != nil {
				return e.step, err
			}
			before := ctx.sent
			if err := e.job.Program.Compute(ctx, v, msgs); err != nil {
				return e.step, err
			}
			if ctx.err != nil {
				return e.step, ctx.err
			}
			if !(v.Halted && ctx.sent == before) {
				haltAll = false
			}
		}

		// Messages to nonexistent vertices instantiate them next
		// superstep (handled implicitly: delivery below creates them).
		for dest := range ctx.outbox {
			if _, ok := e.vertices[dest]; !ok {
				// Vertex will be materialized on delivery.
				haltAll = false
			}
		}

		// Apply mutations: deletions before insertions, resolver settles.
		resolver := e.job.ResolverOrDefault()
		muts := map[uint64]*struct {
			adds    []*pregel.Vertex
			removed bool
		}{}
		for _, id := range ctx.removes {
			m := muts[uint64(id)]
			if m == nil {
				m = &struct {
					adds    []*pregel.Vertex
					removed bool
				}{}
				muts[uint64(id)] = m
			}
			m.removed = true
		}
		for _, v := range ctx.adds {
			m := muts[uint64(v.ID)]
			if m == nil {
				m = &struct {
					adds    []*pregel.Vertex
					removed bool
				}{}
				muts[uint64(v.ID)] = m
			}
			m.adds = append(m.adds, v)
		}
		for id, m := range muts {
			existing := e.vertices[id]
			hadEdges := int64(0)
			if existing != nil {
				hadEdges = int64(len(existing.Edges))
			}
			final := resolver.Resolve(pregel.VertexID(id), existing, m.adds, m.removed)
			switch {
			case final == nil && existing != nil:
				delete(e.vertices, id)
				e.nv--
				e.ne -= hadEdges
				resort = true
			case final != nil:
				if existing == nil {
					resort = true
					e.nv++
					e.ne += int64(len(final.Edges))
				} else {
					e.ne += int64(len(final.Edges)) - hadEdges
				}
				e.vertices[id] = final
			}
		}

		// Deliver messages; materialize missing destinations.
		e.inbox = map[uint64][][]byte{}
		totalMsgs := 0
		for dest, raw := range ctx.outbox {
			if _, ok := e.vertices[dest]; !ok {
				e.vertices[dest] = &pregel.Vertex{
					ID:    pregel.VertexID(dest),
					Value: e.job.Codec.NewVertexValue(),
				}
				e.nv++
				resort = true
			}
			e.inbox[dest] = raw
			totalMsgs += len(raw)
		}

		e.agg = nil
		if ctx.agg != nil {
			e.agg = pregel.MarshalValue(ctx.agg)
		}
		if haltAll && totalMsgs == 0 {
			return e.step, nil
		}
	}
}

func (e *Engine) decodeMsgs(raw [][]byte) ([]pregel.Value, error) {
	if raw == nil {
		return nil, nil
	}
	out := make([]pregel.Value, len(raw))
	for i, b := range raw {
		m := e.job.Codec.NewMessage()
		if err := m.Unmarshal(b); err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// Vertices returns the final vertex set keyed by id.
func (e *Engine) Vertices() map[uint64]*pregel.Vertex { return e.vertices }

// Aggregate returns the final global aggregate bytes (nil if none).
func (e *Engine) Aggregate() []byte { return e.agg }

// Supersteps returns the number of supersteps executed.
func (e *Engine) Supersteps() int64 { return e.step }
