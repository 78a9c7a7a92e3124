// The one file reader (ReadFileToString) and the InputBuffer handle
// over it: exact bytes for regular files of any size, crisp errors (and
// never a hang) for everything else, and the size cap the daemon puts
// on client paths.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "base/file.h"
#include "io/input_buffer.h"

namespace condtd {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& content) {
    char buffer[] = "/tmp/condtd_io_test_XXXXXX";
    int fd = mkstemp(buffer);
    EXPECT_GE(fd, 0);
    path_ = buffer;
    FILE* file = fdopen(fd, "wb");
    EXPECT_NE(file, nullptr);
    if (!content.empty()) {
      EXPECT_EQ(fwrite(content.data(), 1, content.size(), file),
                content.size());
    }
    fclose(file);
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(InputBuffer, FileLargerThanOneReadRoundTripsExactly) {
  // A file much larger than one page, with every byte value, so a
  // dropped or misplaced byte cannot go unnoticed.
  std::string content;
  for (int i = 0; i < 200 * 1024; ++i) {
    content.push_back(static_cast<char>((i * 131 + i / 251) & 0xff));
  }
  TempFile file(content);
  Result<std::string> read = ReadFileToString(file.path());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, content);
  Result<InputBuffer> buffer = InputBuffer::Open(file.path());
  ASSERT_TRUE(buffer.ok()) << buffer.status().ToString();
  EXPECT_FALSE(buffer->is_mapped());
  EXPECT_EQ(buffer->view(), content);
}

TEST(InputBuffer, EmptyFileYieldsEmptyView) {
  // st_size == 0 also sends the reader down its read-to-EOF loop, which
  // must stop at once on a genuinely empty file.
  TempFile file("");
  Result<InputBuffer> buffer = InputBuffer::Open(file.path());
  ASSERT_TRUE(buffer.ok()) << buffer.status().ToString();
  EXPECT_TRUE(buffer->view().empty());
}

TEST(InputBuffer, MissingFileKeepsTheLegacyErrorMessage) {
  Result<InputBuffer> buffer =
      InputBuffer::Open("/nonexistent/condtd_io_test.xml");
  ASSERT_FALSE(buffer.ok());
  EXPECT_EQ(buffer.status().code(), StatusCode::kNotFound);
  EXPECT_NE(buffer.status().message().find("cannot open file: "),
            std::string::npos);
}

TEST(InputBuffer, MoveTransfersTheView) {
  std::string content = "<root><child/></root>";
  TempFile file(content);
  Result<InputBuffer> opened = InputBuffer::Open(file.path());
  ASSERT_TRUE(opened.ok());
  InputBuffer moved = std::move(opened).value();
  InputBuffer target;
  target = std::move(moved);
  EXPECT_EQ(target.view(), content);

  // Small-string content must survive the move too: the view reads the
  // moved-to string storage, not the old one.
  InputBuffer from_string = InputBuffer::FromString("tiny");
  InputBuffer moved_string = std::move(from_string);
  EXPECT_EQ(moved_string.view(), "tiny");
}

// Non-regular inputs: the daemon hands client-supplied paths straight
// to the input layer, so anything that is not a regular file must fail
// fast with a clear Status — and must never block (a FIFO with no
// writer hangs a naive open(O_RDONLY) forever).

TEST(InputBuffer, DirectoryIsRejected) {
  Result<InputBuffer> buffer = InputBuffer::Open("/tmp");
  ASSERT_FALSE(buffer.ok());
  EXPECT_EQ(buffer.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(buffer.status().message().find("is a directory"),
            std::string::npos)
      << buffer.status().ToString();
  Result<std::string> content = ReadFileToString("/tmp");
  ASSERT_FALSE(content.ok());
  EXPECT_EQ(content.status().code(), StatusCode::kInvalidArgument);
}

TEST(InputBuffer, FifoIsRejectedWithoutBlocking) {
  std::string path = "/tmp/condtd_io_test_fifo";
  std::remove(path.c_str());
  ASSERT_EQ(mkfifo(path.c_str(), 0600), 0);
  // No writer exists: if the implementation opened the FIFO with a
  // plain blocking open this test would hang, not fail.
  Result<InputBuffer> buffer = InputBuffer::Open(path);
  ASSERT_FALSE(buffer.ok());
  EXPECT_EQ(buffer.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(buffer.status().message().find("not a regular file"),
            std::string::npos)
      << buffer.status().ToString();
  Result<std::string> content = ReadFileToString(path);
  ASSERT_FALSE(content.ok());
  EXPECT_EQ(content.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(InputBuffer, DeviceFileIsRejected) {
  Result<std::string> content = ReadFileToString("/dev/null");
  ASSERT_FALSE(content.ok());
  EXPECT_EQ(content.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(content.status().message().find("not a regular file"),
            std::string::npos)
      << content.status().ToString();
}

TEST(InputBuffer, ProcfsZeroSizeFileIsReadInFull) {
  // procfs regular files report st_size == 0 but are not empty; the
  // presized fast path would return "" for them.
  Result<std::string> content = ReadFileToString("/proc/self/status");
  if (!content.ok()) GTEST_SKIP() << "no procfs here";
  EXPECT_NE(content->find("Name:"), std::string::npos);

  Result<InputBuffer> buffer = InputBuffer::Open("/proc/self/status");
  ASSERT_TRUE(buffer.ok()) << buffer.status().ToString();
  EXPECT_NE(buffer->view().find("Name:"), std::string_view::npos);

  // Their size says nothing, so the read-to-EOF loop enforces the cap.
  Result<std::string> capped = ReadFileToString("/proc/self/status", 16);
  ASSERT_FALSE(capped.ok());
  EXPECT_EQ(capped.status().code(), StatusCode::kResourceExhausted);
}

TEST(InputBuffer, SizeCapIsCheckedBeforeReading) {
  // The daemon caps PATH documents with this bound: a file above it
  // fails on its size, at the cap it reads in full.
  TempFile file(std::string(4096, 'x'));
  Result<std::string> over = ReadFileToString(file.path(), 1024);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
  Result<std::string> at = ReadFileToString(file.path(), 4096);
  ASSERT_TRUE(at.ok()) << at.status().ToString();
  EXPECT_EQ(at->size(), 4096u);
}

TEST(InputBuffer, SparseFileLargerThanMemoryIsAnErrorNotAnAbort) {
  // A sparse file costs no disk but claims more bytes than the machine
  // has: the reader must refuse it with an error, not let a failed (or,
  // under overcommit, a zero-filled) allocation take the process down.
  TempFile file("");
  const int64_t phys = static_cast<int64_t>(sysconf(_SC_PHYS_PAGES)) *
                       static_cast<int64_t>(sysconf(_SC_PAGESIZE));
  const int64_t size = std::max<int64_t>(int64_t{1} << 40, 2 * phys);
  int fd = ::open(file.path().c_str(), O_WRONLY);
  ASSERT_GE(fd, 0);
  const int rc = ::ftruncate(fd, static_cast<off_t>(size));
  ::close(fd);
  if (rc != 0) GTEST_SKIP() << "filesystem refuses a sparse file this big";
  Result<std::string> content = ReadFileToString(file.path());
  ASSERT_FALSE(content.ok());
  EXPECT_EQ(content.status().code(), StatusCode::kResourceExhausted)
      << content.status().ToString();
  Result<InputBuffer> buffer = InputBuffer::Open(file.path());
  ASSERT_FALSE(buffer.ok());
  EXPECT_EQ(buffer.status().code(), StatusCode::kResourceExhausted);
}

TEST(InputBuffer, MissingFileIsNotFound) {
  Result<std::string> content =
      ReadFileToString("/nonexistent/condtd/x.xml");
  ASSERT_FALSE(content.ok());
  EXPECT_EQ(content.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace condtd
