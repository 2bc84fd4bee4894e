// Per-process scratch directory for tests that write files.
//
// ctest runs every test case in its own process, several at once, so a
// fixed path under /tmp lets one process overwrite or delete a file another
// is still reading. TempDir() is unique to the process (mkdtemp), created
// on first use, and removed with everything in it when the process exits.

#ifndef DEEPDIRECT_TESTS_TEMP_DIR_H_
#define DEEPDIRECT_TESTS_TEMP_DIR_H_

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

namespace deepdirect::testing {

/// This process's scratch directory.
inline const std::filesystem::path& TempDir() {
  struct Owned {
    Owned() {
      std::string pattern =
          (std::filesystem::temp_directory_path() / "deepdirect_test-XXXXXX")
              .string();
      if (::mkdtemp(pattern.data()) == nullptr) {
        std::perror("mkdtemp");
        std::abort();
      }
      path = pattern;
    }
    ~Owned() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
    std::filesystem::path path;
  };
  static const Owned dir;
  return dir.path;
}

/// `name` inside TempDir().
inline std::string TempPath(const std::string& name) {
  return (TempDir() / name).string();
}

}  // namespace deepdirect::testing

#endif  // DEEPDIRECT_TESTS_TEMP_DIR_H_
