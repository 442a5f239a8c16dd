// Fixture: a class defined only in this .cc file is local to its
// translation unit. Its throwing get() must not be taken as the callee of
// a get() call in another file whose receiver type the analyzer cannot
// infer (see src/sim/poller.cc).
#include <stdexcept>

namespace {

class Rec {
 public:
  int get() const;

 private:
  int value_ = 0;
};

int Rec::get() const {
  if (value_ < 0) throw std::runtime_error("negative record value");
  return value_;
}

}  // namespace

int read_record() { return Rec{}.get(); }
