package core

import (
	"testing"

	"pregelix/pregel"
)

// TestChooseJoinBoundaries locks in the cost-based plan advisor's
// switch behavior (Section 5.3.2 / the AutoPlan advisor) before the
// multi-tenant scheduler reuses it across tenants: the advisor must
// scan (full outer join) when the touched-vertex estimate reaches the
// selectivity threshold and probe (left outer join) strictly below it,
// and plan hints must be honored verbatim when AutoPlan is off.
func TestChooseJoinBoundaries(t *testing.T) {
	const n = 1000                                           // NumVertices; threshold = lojSelectivityThreshold * n
	threshold := int64(lojSelectivityThreshold * float64(n)) // 250

	cases := []struct {
		name     string
		autoPlan bool
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
			name:     "superstep1-always-scans",
			autoPlan: true, join: pregel.LeftOuterJoin, ss: 1,
			messages: 0, live: 0, vertices: n,
			want: pregel.FullOuterJoin,
		},
		{
			name:     "sparse-below-threshold-probes",
			autoPlan: true, ss: 2,
			messages: threshold/2 - 1, live: threshold / 2, vertices: n,
			want: pregel.LeftOuterJoin,
		},
		{
			name:     "exactly-at-threshold-scans",
			autoPlan: true, ss: 2,
			messages: threshold / 2, live: threshold / 2, vertices: n,
			want: pregel.FullOuterJoin,
		},
		{
			name:     "just-above-threshold-scans",
			autoPlan: true, ss: 2,
			messages: threshold / 2, live: threshold/2 + 1, vertices: n,
			want: pregel.FullOuterJoin,
		},
		{
			name:     "dense-scans",
			autoPlan: true, ss: 3,
			messages: n, live: n, vertices: n,
			want: pregel.FullOuterJoin,
		},
		{
			name:     "all-halted-no-messages-probes",
			autoPlan: true, ss: 4,
			messages: 0, live: 0, vertices: n,
			want: pregel.LeftOuterJoin,
		},
		{
			name:     "empty-graph-scans",
			autoPlan: true, ss: 2,
			messages: 0, live: 0, vertices: 0,
			want: pregel.FullOuterJoin,
		},
		{
			name:     "autoplan-ignores-leftouter-hint-when-dense",
			autoPlan: true, join: pregel.LeftOuterJoin, ss: 2,
			messages: n / 2, live: n / 2, vertices: n,
			want: pregel.FullOuterJoin,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rs := &runState{
				job: &pregel.Job{
					Name:     "plan-" + tc.name,
					Join:     tc.join,
					AutoPlan: tc.autoPlan,
				},
				gs: globalState{
					Superstep:    tc.ss - 1,
					Messages:     tc.messages,
					LiveVertices: tc.live,
					NumVertices:  tc.vertices,
				},
			}
			if got := chooseJoinFor(rs.job, &rs.gs, tc.ss); got != tc.want {
				t.Fatalf("chooseJoin(ss=%d, msgs=%d, live=%d, |V|=%d, auto=%v, hint=%v) = %v, want %v",
					tc.ss, tc.messages, tc.live, tc.vertices, tc.autoPlan, tc.join, got, tc.want)
			}
		})
	}
}

// TestNeedVid pins the Vid-index maintenance rule the advisor depends
// on: the live-vertex index must exist for the LOJ plan and whenever
// AutoPlan may switch to it.
func TestNeedVid(t *testing.T) {
	for _, tc := range []struct {
		join pregel.JoinKind
		auto bool
		want bool
	}{
		{pregel.FullOuterJoin, false, false},
		{pregel.LeftOuterJoin, false, true},
		{pregel.FullOuterJoin, true, true},
		{pregel.LeftOuterJoin, true, true},
	} {
		rs := &runState{job: &pregel.Job{Join: tc.join, AutoPlan: tc.auto}}
		if got := rs.needVid(); got != tc.want {
			t.Fatalf("needVid(join=%v, auto=%v) = %v, want %v", tc.join, tc.auto, got, tc.want)
		}
	}
}
