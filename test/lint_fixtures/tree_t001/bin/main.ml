let () = ignore (Work.Job.run [ 1.0 ])
