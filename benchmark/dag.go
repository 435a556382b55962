package main

import (
	"fmt"
	"math/rand"
)

// The tp_dag workload: dagPipes independent pipelines, each a chain of stages;
// a stage fans out 1..dagMaxWidth map nodes that all depend on the previous
// stage's reduce, then fans in one reduce that takes every map future as an
// argument. Every node returns (sum of its inputs + 1) mod dagMod.
const (
	dagPipes    = 64
	dagMaxWidth = 16
	dagMod      = 1_000_003
)

// dagStage is one fan-out/fan-in step. Node ids are dense in submission
// order: the maps are first..first+width-1 and the reduce is first+width.
type dagStage struct {
	pipe   int
	first  int
	consts []int // one seeded constant input per map
}

func (s *dagStage) width() int  { return len(s.consts) }
func (s *dagStage) reduce() int { return s.first + len(s.consts) }
func (s *dagStage) nodes() int  { return len(s.consts) + 1 }

// dagSpec is a generated DAG: stages in submission order (round-robin over the
// pipelines, so the windowed submitter advances all of them together) and
// want[id], the oracle's value for every node.
type dagSpec struct {
	stages []dagStage
	nodes  int
	want   []int
	// parents[id] lists the node ids id depends on; the traced run reads it
	// to find each node's last parent.
	parents [][]int32
}

// genDAG draws a DAG of at most maxNodes nodes from seed. The same seed gives
// the same shape, constants and oracle values.
func genDAG(seed int64, maxNodes int) *dagSpec {
	rng := rand.New(rand.NewSource(seed))
	sp := &dagSpec{}
	for {
		for p := 0; p < dagPipes; p++ {
			w := 1 + rng.Intn(dagMaxWidth)
			if sp.nodes+w+1 > maxNodes {
				sp.evaluate()
				return sp
			}
			st := dagStage{pipe: p, first: sp.nodes, consts: make([]int, w)}
			for j := range st.consts {
				st.consts[j] = rng.Intn(dagMod)
			}
			sp.stages = append(sp.stages, st)
			sp.nodes += w + 1
		}
	}
}

// evaluate is the sequential oracle: it walks the stages in order and calls
// the same node function the executors run, on concrete parent values.
func (sp *dagSpec) evaluate() {
	sp.want = make([]int, sp.nodes)
	sp.parents = make([][]int32, sp.nodes)
	prev := make([]int, dagPipes) // id of each pipeline's last reduce, -1 = none
	for i := range prev {
		prev[i] = -1
	}
	for i := range sp.stages {
		st := &sp.stages[i]
		rargs := make([]any, 1, st.nodes())
		rargs[0] = st.reduce()
		rparents := make([]int32, 0, st.width())
		for j, c := range st.consts {
			id := st.first + j
			args := []any{id, c}
			if p := prev[st.pipe]; p >= 0 {
				args = append(args, sp.want[p])
				sp.parents[id] = []int32{int32(p)}
			}
			sp.want[id] = mustInt(nodeFn(args, nil))
			rargs = append(rargs, sp.want[id])
			rparents = append(rparents, int32(id))
		}
		sp.want[st.reduce()] = mustInt(nodeFn(rargs, nil))
		sp.parents[st.reduce()] = rparents
		prev[st.pipe] = st.reduce()
	}
}

// nodeFn is the tp_dag app body: args[0] is the node id (the trace key), the
// rest are inputs — seeded constants and resolved parent values.
func nodeFn(args []any, _ map[string]any) (any, error) {
	sum := 0
	for _, a := range args[1:] {
		v, ok := toInt(a)
		if !ok {
			return nil, fmt.Errorf("node: input of type %T", a)
		}
		sum += v
	}
	return (sum + 1) % dagMod, nil
}

// echoFn is the bag workloads' app body: it returns its first argument.
func echoFn(args []any, _ map[string]any) (any, error) { return args[0], nil }

// toInt reads an integer that may have crossed a serialization boundary.
func toInt(v any) (int, bool) {
	switch x := v.(type) {
	case int:
		return x, true
	case int64:
		return int(x), true
	}
	return 0, false
}

func mustInt(v any, err error) int {
	n, ok := toInt(v)
	if err != nil || !ok {
		panic(fmt.Sprintf("benchmark oracle: %v %v", v, err))
	}
	return n
}
