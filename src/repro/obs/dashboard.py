"""The single-file HTML dashboard served at ``/`` by the obs server.

Pure static markup + a small polling loop against ``/snapshot`` — no
build step, no external assets, no package-data plumbing: the page is a
module-level string so it ships inside the wheel and renders from any
browser pointed at ``repro watch``.
"""

from __future__ import annotations

DASHBOARD_HTML = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro — live MST telemetry</title>
<style>
  :root { color-scheme: dark; }
  body { background:#0d1117; color:#c9d1d9; font:14px/1.45 ui-monospace,
         SFMono-Regular, Menlo, Consolas, monospace; margin:1.5rem; }
  h1 { font-size:1.15rem; color:#e6edf3; margin:0 0 .25rem; }
  .sub { color:#8b949e; margin-bottom:1rem; }
  .grid { display:grid; grid-template-columns:repeat(auto-fit,minmax(210px,1fr));
          gap:.75rem; margin-bottom:1rem; }
  .card { background:#161b22; border:1px solid #30363d; border-radius:8px;
          padding:.7rem .9rem; }
  .card .label { color:#8b949e; font-size:.75rem; text-transform:uppercase;
                 letter-spacing:.06em; }
  .card .value { font-size:1.5rem; color:#e6edf3; margin-top:.15rem; }
  .card .hint { color:#8b949e; font-size:.75rem; margin-top:.1rem; }
  .ok { color:#3fb950; } .warn { color:#d29922; } .bad { color:#f85149; }
  table { border-collapse:collapse; width:100%; margin-bottom:1rem; }
  th, td { text-align:right; padding:.25rem .6rem; border-bottom:1px solid #21262d; }
  th { color:#8b949e; font-weight:normal; }
  td:first-child, th:first-child { text-align:left; }
  h2 { font-size:.85rem; color:#8b949e; text-transform:uppercase;
       letter-spacing:.06em; margin:1.25rem 0 .5rem; }
  .bars { display:flex; align-items:flex-end; gap:2px; height:48px; }
  .bars div { background:#1f6feb; flex:1 1 0; min-width:3px; }
  #status { float:right; }
</style>
</head>
<body>
<h1>repro — live MST telemetry <span id="status" class="warn">connecting…</span></h1>
<div class="sub" id="runline">waiting for a run…</div>

<div class="grid">
  <div class="card"><div class="label">rounds</div>
    <div class="value" id="rounds">0</div>
    <div class="hint"><span id="rps">0</span> rounds/sec</div></div>
  <div class="card"><div class="label">words moved</div>
    <div class="value" id="words">0</div>
    <div class="hint"><span id="messages">0</span> messages</div></div>
  <div class="card"><div class="label">batches</div>
    <div class="value" id="batches">0</div>
    <div class="hint"><span id="supersteps">0</span> supersteps</div></div>
  <div class="card"><div class="label">budget headroom</div>
    <div class="value" id="headroom">—</div>
    <div class="hint" id="budgetline">rounds under the theorem envelope</div></div>
  <div class="card"><div class="label">load skew (send / recv)</div>
    <div class="value" id="skew">—</div>
    <div class="hint">max/mean per-machine words</div></div>
  <div class="card"><div class="label">chaos</div>
    <div class="value" id="chaosfaults">0</div>
    <div class="hint"><span id="crashes">0</span> crashes ·
      <span id="recoveries">0</span> recoveries ·
      <span id="strict">0</span> strict violations</div></div>
  <div class="card"><div class="label">stream queue</div>
    <div class="value" id="streamqueue">—</div>
    <div class="hint"><span id="streamcuts">0</span> cuts ·
      oldest <span id="streamage">0</span> ticks</div></div>
  <div class="card"><div class="label">stream coalescing</div>
    <div class="value" id="streamshipped">—</div>
    <div class="hint"><span id="streamadmitted">0</span> admitted ·
      <span id="streamabsorbed">0</span> absorbed ·
      p99 <span id="streamp99">—</span> ticks</div></div>
  <div class="card"><div class="label">serve daemon</div>
    <div class="value" id="servesessions">—</div>
    <div class="hint"><span id="servestate">down</span> ·
      v<span id="serveversion">0</span> ·
      <span id="servepublishes">0</span> publishes ·
      <span id="serveerrors">0</span> errors</div></div>
  <div class="card"><div class="label">telemetry bus</div>
    <div class="value" id="busevents">0</div>
    <div class="hint"><span id="busdropped">0</span> dropped</div></div>
</div>

<h2>per-machine send words</h2>
<div class="bars" id="machinebars"></div>

<h2>recent batches</h2>
<table>
  <thead><tr><th>mode</th><th>size</th><th>rounds</th><th>words</th>
    <th>wall&nbsp;s</th><th>headroom</th></tr></thead>
  <tbody id="batchrows"><tr><td colspan="6">no batches yet</td></tr></tbody>
</table>

<script>
"use strict";
const fmt = n => n == null ? "—" : Number(n).toLocaleString("en-US");
const el = id => document.getElementById(id);
async function tick() {
  let snap;
  try {
    const res = await fetch("/snapshot", {cache: "no-store"});
    snap = await res.json();
    el("status").textContent = "live";
    el("status").className = "ok";
  } catch (err) {
    el("status").textContent = "disconnected";
    el("status").className = "bad";
    return;
  }
  const run = snap.run || {};
  if (run.model) {
    el("runline").textContent =
      `model ${run.model} · k=${run.k} · n=${run.n ?? "?"} · m=${run.m ?? "?"}`
      + ` · engine ${run.engine ?? "?"}`
      + (snap.budget.describe ? ` · ${snap.budget.describe}` : "");
  }
  el("rounds").textContent = fmt(snap.totals.rounds);
  el("rps").textContent = fmt(snap.rates.rounds_per_second);
  el("words").textContent = fmt(snap.totals.words);
  el("messages").textContent = fmt(snap.totals.messages);
  el("batches").textContent = fmt(snap.totals.batches);
  el("supersteps").textContent = fmt(snap.totals.supersteps);
  const head = snap.budget.last_headroom;
  el("headroom").textContent = fmt(head);
  el("headroom").className = "value " +
    (head == null ? "" : head < 0 ? "bad" : head < 64 ? "warn" : "ok");
  el("budgetline").textContent =
    `${fmt(snap.budget.violations)} over-budget · worst ${fmt(snap.budget.min_headroom)}`;
  el("skew").textContent =
    `${snap.machines.send_skew} / ${snap.machines.recv_skew}`;
  el("chaosfaults").textContent =
    fmt(Object.values(snap.chaos.faults).reduce((a, b) => a + b, 0));
  el("crashes").textContent = fmt(snap.chaos.crashes);
  el("recoveries").textContent = fmt(snap.chaos.recoveries);
  el("strict").textContent = fmt(snap.chaos.strict_violations);
  const stream = snap.stream || {};
  el("streamqueue").textContent = fmt(stream.queue_depth);
  el("streamcuts").textContent =
    fmt(Object.values(stream.cuts || {}).reduce((a, b) => a + b, 0));
  el("streamage").textContent = fmt(stream.oldest_age_ticks);
  el("streamshipped").textContent = fmt(stream.shipped);
  el("streamadmitted").textContent = fmt(stream.admitted);
  el("streamabsorbed").textContent = fmt(stream.absorbed);
  el("streamp99").textContent = fmt(stream.p99_ticks);
  const serve = snap.serve || {};
  el("servesessions").textContent = fmt(serve.sessions);
  el("servestate").textContent = serve.running ? "up" : "down";
  el("servestate").className = serve.running ? "ok" : "";
  el("serveversion").textContent = fmt(serve.forest_version);
  el("servepublishes").textContent = fmt(serve.publishes);
  el("serveerrors").textContent =
    fmt(Object.values(serve.errors || {}).reduce((a, b) => a + b, 0));
  el("busevents").textContent = fmt(snap.bus.events);
  el("busdropped").textContent = fmt(snap.bus.dropped);
  const bars = el("machinebars");
  const send = snap.machines.send_words || [];
  const peak = Math.max(1, ...send);
  bars.innerHTML = send.map(w =>
    `<div style="height:${Math.max(2, Math.round(46 * w / peak))}px"
          title="${fmt(w)} words"></div>`).join("");
  const rows = (snap.batches || []).slice(-12).reverse().map(b =>
    `<tr><td>${b.mode}</td><td>${fmt(b.size)}</td><td>${fmt(b.rounds)}</td>
     <td>${fmt(b.words)}</td><td>${b.seconds ?? "—"}</td>
     <td class="${b.headroom != null && b.headroom < 0 ? "bad" : "ok"}">
       ${fmt(b.headroom)}</td></tr>`);
  el("batchrows").innerHTML =
    rows.join("") || '<tr><td colspan="6">no batches yet</td></tr>';
}
tick();
setInterval(tick, 1000);
</script>
</body>
</html>
"""
