package catalog

import "repro/internal/obs"

// Metrics is the query daemon's telemetry: how often the store was
// reopened, and the planner's pruning accounting accumulated across
// queries (files and epochs skipped versus decoded — the whole point
// of the footer index). All fields are nil-safe obs primitives.
type Metrics struct {
	Queries       *obs.Counter // catalog_queries_total: query/window requests answered
	Refreshes     *obs.Counter // catalog_refreshes_total: store reopens after an on-disk change
	Files         *obs.Counter // catalog_query_files_total: member files considered by queries
	FilesPruned   *obs.Counter // catalog_query_files_pruned_total: members skipped whole
	EpochsTotal   *obs.Counter // catalog_query_epochs_total: epochs in considered members
	EpochsDecoded *obs.Counter // catalog_query_epochs_decoded_total: epochs actually decoded
	CellsDecoded  *obs.Counter // catalog_query_cells_decoded_total: cells actually decoded
}

// newMetrics registers the catalog metric family in reg.
func newMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Queries:       reg.Counter("catalog_queries_total", "Query and window requests answered."),
		Refreshes:     reg.Counter("catalog_refreshes_total", "Store reopens after the member set changed on disk."),
		Files:         reg.Counter("catalog_query_files_total", "Member files considered across queries."),
		FilesPruned:   reg.Counter("catalog_query_files_pruned_total", "Member files skipped whole by the planner."),
		EpochsTotal:   reg.Counter("catalog_query_epochs_total", "Epochs in considered members across queries."),
		EpochsDecoded: reg.Counter("catalog_query_epochs_decoded_total", "Epochs actually decoded across queries."),
		CellsDecoded:  reg.Counter("catalog_query_cells_decoded_total", "Cells actually decoded across queries."),
	}
}

// observe folds one query's planner accounting into the counters.
func (m *Metrics) observe(st Stats) {
	m.Queries.Inc()
	m.Files.Add(uint64(st.Files))
	m.FilesPruned.Add(uint64(st.FilesPruned))
	m.EpochsTotal.Add(uint64(st.EpochsTotal))
	m.EpochsDecoded.Add(uint64(st.EpochsDecoded))
	m.CellsDecoded.Add(uint64(st.CellsDecoded))
}
