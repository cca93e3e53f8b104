package main

// metricDef is one metric the benchmark reports: its name, unit and
// which direction is better. The end-to-end set is printed by a timed
// run (--trace 0), the per-layer set by a traced run (--trace 1).
// BENCHMARK.json at the repository root lists the same metrics; a
// test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_rps", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"tail_ms", "ms", "lower"},
	{"ok_ratio", "ratio", "higher"},
	{"quality_ratio", "ratio", "lower"},
	{"undegraded_ratio", "ratio", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer names follow <module>.<quantity>. Times are per-request
// means (0 where the layer is not on the workload's path), so the
// layers of one workload add up; see RATIONALE.md for which
// end-to-end metric each should move.
var perLayer = []metricDef{
	{"server.decode_us", "us", "lower"},
	{"server.encode_us", "us", "lower"},
	{"http.hop_us", "us", "lower"},
	{"admission.wait_us", "us", "lower"},
	{"canon.canonicalize_us", "us", "lower"},
	{"cache.lookup_us", "us", "lower"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"core.solve_ms", "ms", "lower"},
	{"robust.fallbacks_per_req", "count", "lower"},
	{"robust.exact_share", "ratio", "higher"},
	{"solve.uncovered_ms", "ms", "lower"},
	{"decomp.split_us", "us", "lower"},
	{"decomp.components_per_req", "count", "higher"},
	{"core.partition_us", "us", "lower"},
	{"tise.build_ms", "ms", "lower"},
	{"lp.solve_ms", "ms", "lower"},
	{"lp.pivots_per_req", "count", "lower"},
	{"lp.lu_refactors_per_req", "count", "lower"},
	{"tise.round_us", "us", "lower"},
	{"tise.edf_us", "us", "lower"},
	{"shortwin.solve_ms", "ms", "lower"},
	{"bounds.lower_us", "us", "lower"},
	{"ise.instance_validate_us", "us", "lower"},
	{"ise.validate_us", "us", "lower"},
	{"fleet.hop_us", "us", "lower"},
	{"fleet.owner_hit_ratio", "ratio", "higher"},
	{"fleet.replica_sent_per_miss", "count", "higher"},
	{"fleet.replicate_dropped", "count", "lower"},
	{"fleet.spillover", "count", "lower"},
	{"fleet.ring_owner_us", "us", "lower"},
	{"share.tise_lp", "ratio", "lower"},
	{"share.service_path", "ratio", "lower"},
	{"share.http_hop", "ratio", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}
