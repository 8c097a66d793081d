package fed

import (
	"sync"

	"repro/internal/engine"
	"repro/internal/server"
)

// fedJob is the coordinator's side of one federated campaign: the shard
// scheduler's inputs and the merged results. The job's lifecycle, event
// numbering, journal and streams are server's; downstream events are
// re-stamped under the coordinator's own per-job and global sequences by
// appending them to job, and detail adds the merged rows, shard map and
// retry history to its status.
type fedJob struct {
	job  *server.Job
	req  server.CampaignRequest // boards already expanded into flat
	flat []server.BoardSpec     // one single-replica spec per board, global order

	mu sync.Mutex
	// boardDone marks boards that already counted toward progress, so a
	// shard retried after a partial failure cannot double-count.
	boardDone []bool
	doneCount int
	results   []server.BoardStatus
	agg       *engine.Aggregate
	shards    []server.ShardStatus
	retries   []server.ShardRetry
}

func newFedJob(req server.CampaignRequest, flat []server.BoardSpec) *fedJob {
	return &fedJob{
		req: req, flat: flat,
		boardDone: make([]bool, len(flat)),
		results:   make([]server.BoardStatus, len(flat)),
	}
}

// detail is the job's status hook — the federation-visible part of "the
// retry is surfaced in job detail": the shard map and retry history always,
// and once the fan-in has folded them, the merged aggregate and board rows.
func (j *fedJob) detail(st *server.JobStatus, full bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	st.Shards = append([]server.ShardStatus(nil), j.shards...)
	st.Retries = append([]server.ShardRetry(nil), j.retries...)
	if full && j.agg != nil {
		agg := *j.agg
		st.Aggregate = &agg
		st.BoardResults = append([]server.BoardStatus(nil), j.results...)
	}
}

// boardEvent re-stamps one downstream board event under the coordinator's
// numbering: the board index is remapped into the job's global fleet order
// and progress is recomputed from the coordinator's own completion count
// (downstream progress is meaningless here — each shard reports percent of
// its own slice). Duplicate completions from a retried shard keep the event
// (the stream is an audit trail) but do not re-count.
func (j *fedJob) boardEvent(ev server.JobEvent, globalBoard int) {
	j.mu.Lock()
	ev.Board = globalBoard
	if ev.Type == "done" || ev.Type == "failed" {
		if !j.boardDone[globalBoard] {
			j.boardDone[globalBoard] = true
			j.doneCount++
		}
	}
	ev.Progress = float64(j.doneCount) / float64(len(j.flat)) * 100
	j.mu.Unlock()
	j.job.Append(ev)
}
