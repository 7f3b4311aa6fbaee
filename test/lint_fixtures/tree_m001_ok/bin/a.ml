let tie = Obs.Metrics.counter_labeled "demo.fallbacks" ~label:("reason", "tie")
let off = Obs.Metrics.counter_labeled "demo.fallbacks" ~label:("reason", "off")
let sent = Obs.Metrics.counter "demo.sent"

(* talint: allow M001 — fixture: an acknowledged second registration *)
let sent_again = Obs.Metrics.counter "demo.sent"
