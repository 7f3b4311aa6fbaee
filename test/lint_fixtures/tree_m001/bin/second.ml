let sent = Obs.Metrics.counter "demo.sent"
