// Fixture: an event callback calls get() on a receiver whose type the
// analyzer cannot infer. The only project get() is a class local to
// another translation unit (src/capture/local_record.cc), so no throw is
// reachable from the callback.

struct Scheduler {
  template <class F>
  void after(double delay, F fn);
};

struct Cache;
Cache& shared_cache();

struct Poller {
  Scheduler* sched_;
  int last_ = 0;

  void arm() {
    sched_->after(1.0, [this] { last_ = shared_cache().get(); });
  }
};
