// LINT-AS: src/core/bad_header.h EXPECT-LINT: include-guard
// Fixture: a header with no include guard whose fallible declarations
// lack [[nodiscard]].

#include <string>
#include <vector>

namespace snor {

class Status;
template <typename T>
class Result;

Status DoWrite(const std::string& path);  // EXPECT-LINT: missing-nodiscard

Result<int> LoadCount(const std::string& path);  // EXPECT-LINT: missing-nodiscard

std::vector<int> MakeGallery(int n);  // EXPECT-LINT: missing-nodiscard

[[nodiscard]] Status DoWriteAnnotated(const std::string& path);

[[nodiscard]] std::vector<int> MakeGalleryAnnotated(int n);

class FeatureStore {
 public:
  Status Refresh();  // EXPECT-LINT: missing-nodiscard

  [[nodiscard]] Status RefreshAnnotated();

  // A member of type Status is not a declaration of a fallible function.
  int count = 0;
};

}  // namespace snor
