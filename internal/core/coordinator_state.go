package core

// Coordinator durability: with CoordinatorConfig.StateDir set, the
// coordinator's hard state lives in an external shared directory and a
// restarted coordinator process resumes where the dead one stopped.
//
// State-dir layout:
//
//	<state-dir>/ckpt/cc{1,2,3}/   replicated checkpoint-store datanodes
//	<state-dir>/ckpt/namespace.json  durable DFS namespace (dfs.Options.MetaDir)
//	<state-dir>/catalog.json      sealed-version catalog (base → version)
//	<state-dir>/cc.lease          coordinator lease (lease.go; serve layer)
//
// The checkpoint DFS carries the checkpoint manifests AND the delta
// journal (DeltaStore writes through the same file system), so making
// its namespace durable makes both survive a coordinator restart. The
// catalog records which exact version is current per base job name; on
// restart it arbitrates between sealed-version reports from rejoining
// workers, whose B-trees survived in their processes (WorkerSession).

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// catalogPath returns the sealed-version catalog file, or "" when the
// coordinator is not durable.
func (c *Coordinator) catalogPath() string {
	if c.cfg.StateDir == "" {
		return ""
	}
	return filepath.Join(c.cfg.StateDir, "catalog.json")
}

// saveCatalog persists the current sealed-version map (base → exact
// version). Called after every seal; best-effort (a failed write only
// costs conflict arbitration on the next restart).
func (c *Coordinator) saveCatalog() {
	path := c.catalogPath()
	if path == "" {
		return
	}
	c.qmu.Lock()
	cat := make(map[string]string, len(c.queries))
	for base, res := range c.queries {
		cat[base] = res.version
	}
	c.qmu.Unlock()
	data, err := json.Marshal(cat)
	if err != nil {
		return
	}
	tmp := path + ".tmp"
	if os.WriteFile(tmp, data, 0o644) == nil {
		if err := os.Rename(tmp, path); err != nil {
			c.cfg.logf("coordinator: persisting catalog: %v", err)
		}
	}
}

// loadCatalog reads the persisted sealed-version map (nil when absent
// or unreadable — adoption then trusts the workers' reports alone).
func loadCatalog(path string) map[string]string {
	if path == "" {
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var cat map[string]string
	if json.Unmarshal(data, &cat) != nil {
		return nil
	}
	return cat
}

// versionDepth orders chained versions of one base: each "@d" seal adds
// a segment, so a deeper version is strictly newer.
func versionDepth(version string) int {
	return strings.Count(version, "@d")
}

// adoptSealed folds one worker's sealed-version reports into the
// coordinator's query catalog — the restart half of endJobSessions.
// Rejoining workers kept their sealed B-trees alive across the old
// coordinator's death (WorkerSession); their registration handshakes
// carry what they hold, and this merge rebuilds the partition→worker
// owner maps from those reports. Conflicts between workers reporting
// different versions of the same base are arbitrated by the persisted
// catalog when it names one of them, else by chained-version depth.
func (c *Coordinator) adoptSealed(w *ccWorker, reports []sealedReport) {
	if len(reports) == 0 {
		return
	}
	catalog := loadCatalog(c.catalogPath())
	c.qmu.Lock()
	for _, rep := range reports {
		if rep.Version == "" || rep.NumParts <= 0 || len(rep.Parts) == 0 {
			continue
		}
		base := baseJobName(rep.Version)
		cur := c.queries[base]
		switch {
		case cur == nil:
			if want, ok := catalog[base]; ok && want != rep.Version {
				// The catalog names a different current version; a stale
				// report (a worker that missed the last seal) must not
				// resurrect a superseded version ahead of the holders of
				// the real one.
				if versionDepth(rep.Version) <= versionDepth(want) {
					continue
				}
			}
			cur = &clusterResult{version: rep.Version, owners: make(map[int]*ccWorker)}
			c.queries[base] = cur
		case cur.version != rep.Version:
			// Two workers disagree; keep the catalog's pick, else the
			// deeper (newer) chained version.
			keep := cur.version
			if want, ok := catalog[base]; ok && (want == rep.Version || want == cur.version) {
				keep = want
			} else if versionDepth(rep.Version) > versionDepth(cur.version) {
				keep = rep.Version
			}
			if keep == cur.version {
				continue
			}
			cur = &clusterResult{version: rep.Version, owners: make(map[int]*ccWorker)}
			c.queries[base] = cur
		}
		cur.merge(rep.partTable)
		for _, p := range rep.Parts {
			cur.owners[p] = w
		}
	}
	// Summarize what this worker contributed (sorted for stable logs).
	var versions []string
	for _, rep := range reports {
		versions = append(versions, fmt.Sprintf("%s(%d parts)", rep.Version, len(rep.Parts)))
	}
	sort.Strings(versions)
	c.qmu.Unlock()
	c.cfg.logf("coordinator: re-adopted sealed versions from %s: %s",
		w.ctrl.RemoteAddr(), strings.Join(versions, ", "))
	c.saveCatalog()
}
