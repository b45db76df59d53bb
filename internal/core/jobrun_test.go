package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pregelix/pregel"
)

// errLost is the scripted machine loss: the one error fakePhases.restore
// treats as recoverable.
var errLost = errors.New("scripted machine loss")

// fakeStep scripts one call of the superstep verb.
type fakeStep struct {
	msgs    int64
	haltAll bool
	err     error
	// cancel cancels the run's context after the step succeeded.
	cancel bool
}

// fakePhases is a scripted engine: superstep calls consume steps in
// order (a retried superstep consumes the next entry), checkpoint
// commits an in-memory manifest, restore rewinds to it. Every verb is
// logged with the superstep number and epoch it ran under.
type fakePhases struct {
	steps      []fakeStep
	forceAt    int64 // observe forces a checkpoint after this superstep
	restoreErr error // fails a restore that had a manifest to go to
	cancel     context.CancelFunc

	manifest *checkpointManifest
	log      []string
}

func (f *fakePhases) logf(format string, args ...any) {
	f.log = append(f.log, fmt.Sprintf(format, args...))
}

func (f *fakePhases) boundary(context.Context, *jobRun) error { return nil }

func (f *fakePhases) superstep(_ context.Context, run *jobRun, ss int64, join pregel.JoinKind) (stepOutcome, error) {
	f.logf("ss%d.r%d", ss, run.attempt)
	if len(f.steps) == 0 {
		return stepOutcome{}, errors.New("script exhausted")
	}
	st := f.steps[0]
	f.steps = f.steps[1:]
	if st.err != nil {
		return stepOutcome{}, st.err
	}
	if st.cancel {
		f.cancel()
	}
	return stepOutcome{stat: SuperstepStat{Messages: st.msgs, NumVertices: 10}, haltAll: st.haltAll}, nil
}

func (f *fakePhases) observe(_ context.Context, run *jobRun) (bool, error) {
	return run.gs.Superstep == f.forceAt, nil
}

func (f *fakePhases) checkpoint(_ context.Context, run *jobRun, ss int64) error {
	f.logf("ckpt%d", ss)
	f.manifest = &checkpointManifest{Superstep: ss, GS: run.gs}
	return nil
}

func (f *fakePhases) restore(_ context.Context, _ *jobRun, cause error) (*checkpointManifest, error) {
	if !errors.Is(cause, errLost) {
		return nil, errNotRecoverable
	}
	f.logf("restore")
	if f.manifest == nil {
		return nil, errors.New("no checkpoint")
	}
	if f.restoreErr != nil {
		return nil, f.restoreErr
	}
	return f.manifest, nil
}

func (f *fakePhases) dump(context.Context, *jobRun) error {
	f.logf("dump")
	return nil
}

// TestJobRunDriver drives the superstep state machine over a scripted
// engine: every decision the driver owns, checked on the sequence of
// verbs it issues and the statistics it leaves.
func TestJobRunDriver(t *testing.T) {
	appErr := errors.New("compute failed")
	restoreErr := errors.New("store unreadable")
	run5 := []fakeStep{{msgs: 5}, {msgs: 5}, {msgs: 5}, {msgs: 5}, {msgs: 5}}

	cases := []struct {
		name    string
		job     pregel.Job
		ph      fakePhases
		wantLog string
		// wantErr must match with errors.Is; wantErrText must appear in it.
		wantErr     error
		wantErrText string
		// Checked on success only.
		supersteps, msgs       int64
		checkpoints, recovered int
		attempt                int64
	}{
		{
			name: "halts-only-when-all-voted-and-no-messages",
			ph: fakePhases{steps: []fakeStep{
				{msgs: 3, haltAll: true}, // messages in flight: not a halt
				{msgs: 0, haltAll: false},
				{msgs: 0, haltAll: true},
			}},
			wantLog:    "ss1.r0 ss2.r0 ss3.r0 dump",
			supersteps: 3, msgs: 3,
		},
		{
			name:       "max-supersteps-caps-the-run",
			job:        pregel.Job{MaxSupersteps: 2},
			ph:         fakePhases{steps: run5},
			wantLog:    "ss1.r0 ss2.r0 dump",
			supersteps: 2, msgs: 10,
		},
		{
			name:       "checkpoint-cadence-and-forced",
			job:        pregel.Job{MaxSupersteps: 5, CheckpointEvery: 2},
			ph:         fakePhases{steps: run5, forceAt: 3},
			wantLog:    "ss1.r0 ss2.r0 ckpt2 ss3.r0 ckpt3 ss4.r0 ckpt4 ss5.r0 dump",
			supersteps: 5, msgs: 25, checkpoints: 3,
		},
		{
			name:       "forced-checkpoint-needs-checkpointing-on",
			job:        pregel.Job{MaxSupersteps: 2},
			ph:         fakePhases{steps: run5, forceAt: 1},
			wantLog:    "ss1.r0 ss2.r0 dump",
			supersteps: 2, msgs: 10,
		},
		{
			name: "loss-rewinds-to-manifest-and-retries-under-next-epoch",
			job:  pregel.Job{MaxSupersteps: 4, CheckpointEvery: 2},
			ph: fakePhases{steps: []fakeStep{
				{msgs: 1}, {msgs: 2}, {msgs: 4}, {err: errLost},
				{msgs: 8}, {msgs: 16},
			}},
			// Superstep 3 committed before the loss; it is rolled back with
			// the statistics and runs again.
			wantLog:    "ss1.r0 ss2.r0 ckpt2 ss3.r0 ss4.r0 restore ss3.r1 ss4.r1 ckpt4 dump",
			supersteps: 4, msgs: 1 + 2 + 8 + 16, checkpoints: 2, recovered: 1, attempt: 1,
		},
		{
			name:    "application-error-is-forwarded-verbatim-never-retried",
			job:     pregel.Job{CheckpointEvery: 1},
			ph:      fakePhases{steps: []fakeStep{{msgs: 1}, {err: appErr}, {msgs: 1}}},
			wantLog: "ss1.r0 ckpt1 ss2.r0",
			wantErr: appErr, wantErrText: "compute failed",
		},
		{
			name:    "loss-without-checkpoint-reports-both-errors",
			ph:      fakePhases{steps: []fakeStep{{msgs: 1}, {err: errLost}}},
			wantLog: "ss1.r0 ss2.r0 restore",
			wantErr: errLost, wantErrText: "recovery failed: no checkpoint",
		},
		{
			name:    "failed-recovery-reports-both-errors",
			job:     pregel.Job{CheckpointEvery: 1},
			ph:      fakePhases{steps: []fakeStep{{msgs: 1}, {err: errLost}}, restoreErr: restoreErr},
			wantLog: "ss1.r0 ckpt1 ss2.r0 restore",
			wantErr: errLost, wantErrText: "recovery failed: store unreadable",
		},
		{
			name:    "context-cancel-between-steps",
			ph:      fakePhases{steps: []fakeStep{{msgs: 1}, {msgs: 1, cancel: true}, {msgs: 1}}},
			wantLog: "ss1.r0 ss2.r0",
			wantErr: context.Canceled,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ph := tc.ph
			ph.cancel = cancel
			job := tc.job
			run := newJobRun("fake", &job)
			run.gs = globalState{NumVertices: 10, LiveVertices: 10}
			var progress []int64
			run.progress = func(ss int64) { progress = append(progress, ss) }

			err := run.drive(ctx, &ph)
			if got := strings.Join(ph.log, " "); got != tc.wantLog {
				t.Errorf("verbs issued:\n got %s\nwant %s", got, tc.wantLog)
			}
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) || !strings.Contains(err.Error(), tc.wantErrText) {
					t.Fatalf("err = %v, want %v containing %q", err, tc.wantErr, tc.wantErrText)
				}
				if tc.wantErr == appErr && err != appErr {
					t.Fatalf("application error was wrapped: %v", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			st := run.stats
			if st.Supersteps != tc.supersteps || st.TotalMessages != tc.msgs ||
				st.Checkpoints != tc.checkpoints || st.Recoveries != tc.recovered || run.attempt != tc.attempt {
				t.Errorf("supersteps=%d msgs=%d checkpoints=%d recoveries=%d attempt=%d, want %d %d %d %d %d",
					st.Supersteps, st.TotalMessages, st.Checkpoints, st.Recoveries, run.attempt,
					tc.supersteps, tc.msgs, tc.checkpoints, tc.recovered, tc.attempt)
			}
			// One row per committed superstep, in order, none duplicated by
			// a rollback; the final state is the last one's.
			var rows []int64
			for _, s := range st.SuperstepStats {
				rows = append(rows, s.Superstep)
			}
			want := make([]int64, tc.supersteps)
			for i := range want {
				want[i] = int64(i + 1)
			}
			if !reflect.DeepEqual(rows, want) {
				t.Errorf("SuperstepStats rows %v, want %v", rows, want)
			}
			if st.FinalState.Superstep != tc.supersteps || st.FinalState.NumVertices != 10 {
				t.Errorf("FinalState = %+v", st.FinalState)
			}
			if tc.recovered == 0 && !reflect.DeepEqual(progress, want) {
				t.Errorf("progress calls %v, want %v", progress, want)
			}
		})
	}
}
