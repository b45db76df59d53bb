package core

import (
	"testing"

	"pregelix/pregel"
)

// TestChooseJoinBoundaries locks in the join planner's switch behavior
// (Section 5.3.2) under AutoJoin: it must scan (full outer join) when
// the touched-vertex estimate reaches the selectivity threshold and
// probe (left outer join) strictly below it, and the other join hints
// must be honored verbatim.
func TestChooseJoinBoundaries(t *testing.T) {
	const n = 1000                                           // NumVertices; threshold = lojSelectivityThreshold * n
	threshold := int64(lojSelectivityThreshold * float64(n)) // 250

	cases := []struct {
		name     string
		join     pregel.JoinKind
		ss       int64
		messages int64
		live     int64
		vertices int64
		want     pregel.JoinKind
	}{
		{
			name: "autoplan-off-forced-fullouter",
			join: pregel.FullOuterJoin, ss: 5,
			messages: 1, live: 1, vertices: n,
			want: pregel.FullOuterJoin,
		},
		{
			name: "autoplan-off-forced-leftouter",
			join: pregel.LeftOuterJoin, ss: 5,
			// Dense superstep: a forced LOJ hint must still probe.
			messages: n, live: n, vertices: n,
			want: pregel.LeftOuterJoin,
		},
		{
			name: "superstep1-always-scans",
			join: pregel.AutoJoin, ss: 1,
			messages: 0, live: 0, vertices: n,
			want: pregel.FullOuterJoin,
		},
		{
			name: "sparse-below-threshold-probes",
			join: pregel.AutoJoin, ss: 2,
			messages: threshold/2 - 1, live: threshold / 2, vertices: n,
			want: pregel.LeftOuterJoin,
		},
		{
			name: "exactly-at-threshold-scans",
			join: pregel.AutoJoin, ss: 2,
			messages: threshold / 2, live: threshold / 2, vertices: n,
			want: pregel.FullOuterJoin,
		},
		{
			name: "just-above-threshold-scans",
			join: pregel.AutoJoin, ss: 2,
			messages: threshold / 2, live: threshold/2 + 1, vertices: n,
			want: pregel.FullOuterJoin,
		},
		{
			name: "dense-scans",
			join: pregel.AutoJoin, ss: 3,
			messages: n, live: n, vertices: n,
			want: pregel.FullOuterJoin,
		},
		{
			name: "all-halted-no-messages-probes",
			join: pregel.AutoJoin, ss: 4,
			messages: 0, live: 0, vertices: n,
			want: pregel.LeftOuterJoin,
		},
		{
			name: "empty-graph-scans",
			join: pregel.AutoJoin, ss: 2,
			messages: 0, live: 0, vertices: 0,
			want: pregel.FullOuterJoin,
		},
		{
			name: "autoplan-ignores-leftouter-hint-when-dense",
			join: pregel.AutoJoin, ss: 2,
			messages: n / 2, live: n / 2, vertices: n,
			want: pregel.FullOuterJoin,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rs := &runState{
				job: &pregel.Job{
					Name: "plan-" + tc.name,
					Join: tc.join,
				},
				gs: globalState{
					Superstep:    tc.ss - 1,
					Messages:     tc.messages,
					LiveVertices: tc.live,
					NumVertices:  tc.vertices,
				},
			}
			if got := chooseJoinFor(rs.job, &rs.gs, tc.ss); got != tc.want {
				t.Fatalf("chooseJoin(ss=%d, msgs=%d, live=%d, |V|=%d, hint=%v) = %v, want %v",
					tc.ss, tc.messages, tc.live, tc.vertices, tc.join, got, tc.want)
			}
		})
	}
}

// TestNeedVid pins the Vid-index maintenance rule the planner depends
// on: the live-vertex index must exist for the LOJ plan and whenever
// AutoJoin may switch to it.
func TestNeedVid(t *testing.T) {
	for _, tc := range []struct {
		join pregel.JoinKind
		want bool
	}{
		{pregel.FullOuterJoin, false},
		{pregel.LeftOuterJoin, true},
		{pregel.AutoJoin, true},
	} {
		rs := &runState{job: &pregel.Job{Join: tc.join}}
		if got := rs.needVid(); got != tc.want {
			t.Fatalf("needVid(join=%v) = %v, want %v", tc.join, got, tc.want)
		}
	}
}
