// Intraprocedural span/string_view lifetime: dangling-span.
//
// File-local by design (it runs during the parallel scan): the facts it needs — a view-returning
// function returning an owning local / by-value owner parameter /
// temporary, or a view parameter stored into a member — are all
// visible inside one function body via scan_flow(). Cross-function
// escapes are out of scope; the rule under-reports rather than chases
// aliases it cannot see.
#include <string>
#include <vector>

#include "core.hpp"
#include "flow.hpp"
#include "passes.hpp"

namespace gpuvar::analyzer {

void run_lifetime_pass(const Repo& repo, std::vector<Finding>& findings) {
  for (const auto& f : repo.files) {
    if (!f.in_src()) continue;
    for (const FlowFunction& fn : scan_flow(f)) {
      for (const auto& vr : fn.view_returns) {
        Finding fd;
        fd.file = f.rel;
        fd.line = vr.line;
        fd.rule = "dangling-span";
        fd.symbol = fn.name;
        switch (vr.kind) {
          case 'l':
            fd.message = "returns a span/string_view bound to local "
                         "owner '" +
                         vr.name + "' — the backing storage dies at "
                         "return";
            break;
          case 'p':
            fd.message = "returns a span/string_view bound to by-value "
                         "owner parameter '" +
                         vr.name + "' — the backing storage dies at "
                         "return";
            break;
          default:
            fd.message = "returns a span/string_view bound to a "
                         "temporary (" +
                         vr.name + ") destroyed at the end of the "
                         "statement";
            break;
        }
        findings.push_back(std::move(fd));
      }
      for (const auto& vs : fn.view_stores) {
        Finding fd;
        fd.file = f.rel;
        fd.line = vs.line;
        fd.rule = "dangling-span";
        fd.symbol = fn.name + "::" + vs.member;
        fd.message = "stores view parameter '" + vs.param +
                     "' into member '" + vs.member +
                     "' — the member outlives the caller's backing "
                     "storage";
        findings.push_back(std::move(fd));
      }
    }
  }
}

}  // namespace gpuvar::analyzer
